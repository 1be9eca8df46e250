"""Naive vs fast-path ECDSA verification throughput.

Measures four verification strategies per curve:

``naive``
    The retained pre-fast-path verifier (``verify_rs_reference``): two
    independent double-and-add multiplications with per-op affine
    round-trips.
``fast_cold``
    The engine's first contact with a key — Strauss–Shamir over freshly
    built odd multiples (the point cache is reset before every round).
``fast_hot``
    The steady state for VCEK/ASK/ARK/site keys: fixed-base tables on
    both halves of ``u1*G + u2*Q``.  Distinct messages per round, so the
    signature cache never hits — this is pure EC speedup.
``memoized``
    Re-verifying an identical ``(key, message, signature)`` tuple — a
    signature-cache hit (what the extension does on every page load).

A cipher section then times the T-table AES against the retained
byte-sliced rounds (``benchmarks/aes_pr12.py``) under 4-sector
AES-256-XTS, after asserting that both produce byte-identical AES and
XTS output.

Writes ``BENCH_crypto.json`` next to this script and fails if the hot
fast path is not measurably faster than the naive path, or the T-table
cipher is not at least ``MIN_CIPHER_SPEEDUP`` times the oracle.

Run directly: ``PYTHONPATH=src python benchmarks/bench_crypto.py``
CI smoke mode: ``BENCH_CRYPTO_ROUNDS=6 PYTHONPATH=src python benchmarks/bench_crypto.py``
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import aes_pr12
from repro.crypto import ec, sigcache
from repro.crypto.aes import AES
from repro.crypto.batch import BatchItem, BatchVerifier
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, verify_rs_reference
from repro.crypto.modes import XtsCipher

ROUNDS = int(os.environ.get("BENCH_CRYPTO_ROUNDS", "40"))
#: The hot fast path must beat naive by at least this factor for the
#: benchmark to pass.  Kept deliberately conservative so the CI smoke
#: run (few rounds, noisy shared runners) stays reliable; full runs on
#: this implementation measure ~8x or better (recorded in the JSON).
MIN_SPEEDUP = float(os.environ.get("BENCH_CRYPTO_MIN_SPEEDUP", "1.5"))
#: Cold attestation chains in the batch-verification phase (>= 16 keeps
#: the MSM amortisation representative of a fleet admission storm).
BATCH_CHAINS = int(os.environ.get("BENCH_CRYPTO_BATCH_CHAINS", "16"))
#: Required batch-vs-naive speedup on cold 3-cert P-384 chains.  Full
#: runs clear 10x; CI smoke lowers the floor to 4x for noisy runners.
MIN_BATCH_SPEEDUP = float(os.environ.get("BENCH_CRYPTO_MIN_BATCH_SPEEDUP", "10.0"))

CURVES = {"P-256": "sha256", "P-384": "sha384"}

#: Sectors per XTS call in the cipher section: a 16 KiB request.
CIPHER_SECTORS = 4
#: Timed calls per cipher and direction (about 0.2 s in all).
CIPHER_REPEATS = 20
#: Required T-table speed-up over the vendored byte-sliced rounds on
#: AES-256-XTS encrypt and decrypt of CIPHER_SECTORS 4 KiB sectors.
#: Runs on 2 cores measure 2.4-3.3x encrypt and 3.7-5.2x decrypt.
MIN_CIPHER_SPEEDUP = 2.0


def _signatures(curve_name: str, hash_name: str):
    curve = ec.get_curve(curve_name)
    private = EcdsaPrivateKey.generate(curve, HmacDrbg(b"bench-" + curve_name.encode()))
    public = private.public_key()
    size = curve.coordinate_size
    batch = []
    for index in range(ROUNDS):
        message = b"bench message %d" % index
        signature = private.sign(message, hash_name)
        r = int.from_bytes(signature[:size], "big")
        s = int.from_bytes(signature[size:], "big")
        batch.append((message, signature, r, s))
    return public, batch


def _throughput(worker, rounds: int) -> float:
    started = time.perf_counter()
    for index in range(rounds):
        assert worker(index), "benchmark signature failed to verify"
    return rounds / (time.perf_counter() - started)


def _measure_curve(curve_name: str, hash_name: str) -> dict:
    public, batch = _signatures(curve_name, hash_name)

    naive = _throughput(
        lambda i: verify_rs_reference(
            public, batch[i][0], batch[i][2], batch[i][3], hash_name
        ),
        ROUNDS,
    )

    def cold(i):
        ec.reset_point_cache()
        return public.verify_rs(batch[i][0], batch[i][2], batch[i][3], hash_name)

    fast_cold = _throughput(cold, ROUNDS)

    ec.reset_point_cache()
    sigcache.reset_cache()
    for _ in range(2):  # cross hot_threshold: builds the fixed-base table
        public.verify_rs(batch[0][0], batch[0][2], batch[0][3], hash_name)
    fast_hot = _throughput(
        lambda i: public.verify_rs(batch[i][0], batch[i][2], batch[i][3], hash_name),
        ROUNDS,
    )
    point_stats = ec.get_point_cache().stats()

    sigcache.reset_cache()
    message, signature, _, _ = batch[0]
    sigcache.cached_verify(public, message, signature, hash_name)  # prime
    memoized = _throughput(
        lambda i: sigcache.cached_verify(public, message, signature, hash_name),
        ROUNDS,
    )
    sig_stats = sigcache.get_cache().stats()

    return {
        "hash": hash_name,
        "naive_verifications_per_sec": naive,
        "fast_cold_verifications_per_sec": fast_cold,
        "fast_hot_verifications_per_sec": fast_hot,
        "memoized_verifications_per_sec": memoized,
        "hot_speedup_vs_naive": fast_hot / naive,
        "memoized_speedup_vs_naive": memoized / naive,
        "point_cache": point_stats,
        "signature_cache": sig_stats,
    }


def _cold_chains(count: int):
    """A fleet admission storm's verification work: *count* cold 3-cert
    P-384 chains sharing one root and one intermediate (AMD's ARK/ASK),
    each with its own leaf key (the per-chip VCEK) and report signature.
    Returns per-chain lists of (public, message, signature) triples."""
    curve = ec.get_curve("P-384")
    root = EcdsaPrivateKey.generate(curve, HmacDrbg(b"bench-batch-root"))
    intermediate = EcdsaPrivateKey.generate(
        curve, HmacDrbg(b"bench-batch-intermediate")
    )
    intermediate_tbs = b"bench intermediate certificate (ASK)"
    intermediate_sig = root.sign(intermediate_tbs, "sha384")
    chains = []
    for index in range(count):
        leaf = EcdsaPrivateKey.generate(
            curve, HmacDrbg(b"bench-batch-leaf-%d" % index)
        )
        leaf_tbs = b"bench leaf certificate (VCEK) %d" % index
        report = b"bench attestation report %d" % index
        chains.append([
            (root.public_key(), intermediate_tbs, intermediate_sig),
            (intermediate.public_key(), leaf_tbs,
             intermediate.sign(leaf_tbs, "sha384")),
            (leaf.public_key(), report, leaf.sign(report, "sha384")),
        ])
    return chains


def _measure_batch() -> dict:
    """Batch verification of a cold admission storm vs naive per-sig."""
    chains = _cold_chains(BATCH_CHAINS)
    flat = [triple for chain in chains for triple in chain]

    def naive_chain(i):
        for public, message, signature in chains[i]:
            size = public.curve.coordinate_size
            r = int.from_bytes(signature[:size], "big")
            s = int.from_bytes(signature[size:], "big")
            if not verify_rs_reference(public, message, r, s, "sha384"):
                return False
        return True

    naive = _throughput(naive_chain, BATCH_CHAINS)

    ec.reset_point_cache()  # cold: no precomputed key tables
    verifier = BatchVerifier(HmacDrbg(b"bench-batch"))
    items = [
        BatchItem(public, message, signature, "sha384")
        for public, message, signature in flat
    ]
    started = time.perf_counter()
    result = verifier.verify(items)
    elapsed = time.perf_counter() - started
    assert all(result.verdicts), "batch benchmark signature failed to verify"
    batch = BATCH_CHAINS / elapsed

    return {
        "chains": BATCH_CHAINS,
        "signatures": len(items),
        "curve": "P-384",
        "naive_chains_per_sec": naive,
        "batch_chains_per_sec": batch,
        "batch_signatures_per_sec": len(items) / elapsed,
        "batch_speedup_vs_naive": batch / naive,
        "batch_stats": result.stats(),
    }


def _measure_point_cache_churn() -> dict:
    """Realistic point-cache behaviour under a many-key cold-chain storm:
    more distinct public keys than the cache holds, two verifications
    each (crossing ``hot_threshold``), so the JSON reports genuine
    entries/evictions instead of the single-key ``entries: 1``."""
    curve = ec.get_curve("P-256")
    cache = ec.reset_point_cache()
    keys = cache.capacity + 12  # overcommit: forces LRU eviction churn
    pairs = []
    for index in range(keys):
        private = EcdsaPrivateKey.generate(
            curve, HmacDrbg(b"bench-churn-%d" % index)
        )
        message = b"churn message %d" % index
        signature = private.sign(message)
        size = curve.coordinate_size
        pairs.append((
            private.public_key(),
            message,
            int.from_bytes(signature[:size], "big"),
            int.from_bytes(signature[size:], "big"),
        ))
    started = time.perf_counter()
    for public, message, r, s in pairs:
        assert public.verify_rs(message, r, s, "sha256")
    # Second sweep in reverse: the LRU's resident tail hits (and earns
    # fixed-base tables), the evicted head rebuilds — realistic churn.
    for public, message, r, s in reversed(pairs):
        assert public.verify_rs(message, r, s, "sha256")
    elapsed = time.perf_counter() - started
    stats = cache.stats()
    stats["capacity"] = cache.capacity
    stats["distinct_keys"] = keys
    stats["evicted"] = max(0, stats["misses"] - stats["entries"])
    stats["verifications_per_sec"] = (2 * keys) / elapsed
    ec.reset_point_cache()
    return stats


def _best_seconds(*workers) -> list:
    """Best-of-CIPHER_REPEATS wall time of each worker, run alternately so
    that host noise hits both sides alike."""
    best = [float("inf")] * len(workers)
    for _ in range(CIPHER_REPEATS):
        for index, worker in enumerate(workers):
            started = time.perf_counter()
            worker()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def _measure_cipher() -> dict:
    """T-table AES vs the byte-sliced oracle it replaced.

    Output equality is asserted first: every key size in both directions
    across the 8192-block lookup slice, and full XTS against an
    ``XtsCipher`` whose data cipher is the oracle.  Then the data-cipher
    AES of a CIPHER_SECTORS-sector AES-256-XTS call is timed on both
    sides; the XTS whitening and tweaks around it are shared code."""
    rng = HmacDrbg(b"bench-cipher")
    data = rng.generate(16 * 8193)
    for key_size in (16, 24, 32):
        key = rng.generate(key_size)
        new, old = AES(key), aes_pr12.AES(key)
        assert new.encrypt_blocks(data) == old.encrypt_blocks(data), key_size
        assert new.decrypt_blocks(data) == old.decrypt_blocks(data), key_size

    key = rng.generate(64)
    xts, oracle = XtsCipher(key), XtsCipher(key)
    oracle._data_cipher = aes_pr12.AES(key[:32])
    plaintext = rng.generate(4096 * CIPHER_SECTORS)
    ciphertext = xts.encrypt(plaintext, 5)
    assert oracle.encrypt(plaintext, 5) == ciphertext
    assert oracle.decrypt(ciphertext, 5) == plaintext
    assert xts.decrypt(ciphertext, 5) == plaintext

    results = {"sectors": CIPHER_SECTORS, "min_required_speedup": MIN_CIPHER_SPEEDUP}
    for direction, payload in (("encrypt", plaintext), ("decrypt", ciphertext)):
        old_ecb = getattr(oracle._data_cipher, f"{direction}_blocks")
        new_ecb = getattr(xts._data_cipher, f"{direction}_blocks")
        old_s, new_s = _best_seconds(lambda: old_ecb(payload), lambda: new_ecb(payload))
        results[f"{direction}_byte_sliced_ms"] = old_s * 1e3
        results[f"{direction}_t_table_ms"] = new_s * 1e3
        results[f"{direction}_speedup"] = old_s / new_s
    return results


def main() -> dict:
    results = {
        "benchmark": "ECDSA verification: naive vs fast path",
        "rounds": ROUNDS,
        "min_required_hot_speedup": MIN_SPEEDUP,
        "curves": {},
    }
    for curve_name, hash_name in CURVES.items():
        measured = _measure_curve(curve_name, hash_name)
        results["curves"][curve_name] = measured
        print(
            f"{curve_name}: naive {measured['naive_verifications_per_sec']:7.1f}/s"
            f"  cold {measured['fast_cold_verifications_per_sec']:7.1f}/s"
            f"  hot {measured['fast_hot_verifications_per_sec']:7.1f}/s"
            f"  memoized {measured['memoized_verifications_per_sec']:9.0f}/s"
            f"  (hot speedup {measured['hot_speedup_vs_naive']:.1f}x)"
        )
        assert measured["hot_speedup_vs_naive"] >= MIN_SPEEDUP, (
            f"{curve_name} hot fast path is only "
            f"{measured['hot_speedup_vs_naive']:.2f}x naive "
            f"(required >= {MIN_SPEEDUP}x)"
        )

    batch = _measure_batch()
    results["batch"] = batch
    results["min_required_batch_speedup"] = MIN_BATCH_SPEEDUP
    print(
        f"batch: {batch['chains']} cold 3-cert P-384 chains  "
        f"naive {batch['naive_chains_per_sec']:6.1f} chains/s  "
        f"batch {batch['batch_chains_per_sec']:6.1f} chains/s  "
        f"({batch['batch_speedup_vs_naive']:.1f}x)"
    )
    assert batch["batch_speedup_vs_naive"] >= MIN_BATCH_SPEEDUP, (
        f"batch verification is only "
        f"{batch['batch_speedup_vs_naive']:.2f}x naive on cold chains "
        f"(required >= {MIN_BATCH_SPEEDUP}x)"
    )

    cipher = _measure_cipher()
    results["cipher"] = cipher
    print(
        f"cipher: {CIPHER_SECTORS}-sector AES-256-XTS  T-table vs byte-sliced  "
        f"encrypt {cipher['encrypt_speedup']:.1f}x  "
        f"decrypt {cipher['decrypt_speedup']:.1f}x"
    )
    for direction in ("encrypt", "decrypt"):
        assert cipher[f"{direction}_speedup"] >= MIN_CIPHER_SPEEDUP, (
            f"T-table XTS {direction} is only {cipher[f'{direction}_speedup']:.2f}x "
            f"the byte-sliced oracle (required >= {MIN_CIPHER_SPEEDUP}x)"
        )

    churn = _measure_point_cache_churn()
    results["point_cache_churn"] = churn
    print(
        f"point-cache churn: {churn['distinct_keys']} keys over "
        f"capacity {churn['capacity']}: {churn['entries']} resident, "
        f"{churn['evicted']} evicted, {churn['hits']} hits"
    )

    output = Path(__file__).resolve().parent / "BENCH_crypto.json"
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}")
    return results


if __name__ == "__main__":
    main()
