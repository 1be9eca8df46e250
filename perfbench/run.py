"""The repo benchmark: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mesh_lite_storm --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``mesh_lite_storm``, ``attested_visits``
and ``sealed_storage_io``.  The program under test is ``src/repro``,
imported from this checkout.

``--trace 0`` runs the workload in ROUNDS rounds, one after the other:
each sets up a fresh world on a seed of its own (derived from
``--seed``) and runs a timed phase of ``--seconds / ROUNDS`` worth of
operations on it.  It checks the outputs of every round and prints
every end-to-end metric: wall figures are medians over the rounds, so
host noise in one round does not move them, and sim figures pool the
samples of all rounds.  ``--trace 1`` runs the first round once
untraced and once with the layer tracer of ``tracing.py`` installed,
checks that both produce the same sim digest, and prints every
per-layer metric.

Two clocks: *wall* metrics measure how fast this Python program runs;
*sim* metrics measure what the modelled deployment experiences and
repeat exactly for a given seed (``sim_digest`` pins them).  Process-
global caches (signature cache and its key fingerprints, EC point
cache and generator tables, recovery hints, attestation tracer) are
reset before every set-up, and every run is its own process, so
``peak_rss_mib`` is per workload.

End-to-end metrics, printed for every workload:

* ``setup_s``: wall seconds from start to the first timed operation
  (median over the rounds).
* ``ops_per_wall_s``: operations per wall second in the timed phase
  (median over the rounds); an operation is one simulated request
  (storms) or one I/O request.
* ``wall_op_p50_ms``: wall time of the host's synchronous work on one
  operation: one storm client request (``Host.request``), one browser
  visit (``Browser.navigate``), one volume call.  Its p99 is printed
  on an info line but is no metric: the tail of sub-millisecond
  operations measures the host's scheduler more than the program.
* ``peak_rss_mib``: the process's memory high-water mark.
* ``sim_p50_ms``/``sim_p99_ms``: sim latency per request (storms) or the
  ``StorageMeter`` sim time charged to it.
* ``sim_first_visit_p99_ms``/``sim_revisit_p50_ms``: a session's first
  request against its later ones: first visit / revisits, lite hello /
  records, and for storage requests touching a block for the first time
  / only blocks touched before.

Every percentile is a mid-quantile (``workloads.quantile``) and must
have at least ten samples beyond it.  A wall percentile is the median
of that percentile over consecutive slices of the rounds' timed phases,
so a burst of host noise in one slice does not move it.  The error rate
is not a metric (it is 0 on every workload): the result line carries
``attempted`` and ``failed``, summed over the rounds, and a failed
operation fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give sample counts, checks, the sim digest, the storms' backlog
ratio and the health-sweep split.  The exit code is 1 if any output
check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Rounds (set-up + timed phase) per ``--trace 0`` run.
ROUNDS = 3

#: Wall percentiles: at most this many slices of the timed phase ...
MAX_SLICES = 10
#: ... each of at least this many operations (ten beyond a p99).
SLICE_MIN_OPS = 1000

#: Units and directions of every metric live in ``BENCHMARK.json``.
SPEC_FILE = HERE.parent / "BENCHMARK.json"

MESH, VISITS, STORAGE = "mesh_lite_storm", "attested_visits", "sealed_storage_io"
STORMS = (MESH, VISITS)

#: name -> (the end-to-end metric and workload it should move,
#: workloads on which it must not read zero).  A zero there means
#: a wrapper that never fired or a layer the workload never reached;
#: figures that may legitimately read zero (a stale ratio, a queue
#: depth below the knee) list no workload.
PER_LAYER = {
    "sim.kernel.steps": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "sim.kernel.self_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "sim.kernel.peak_heap": ("ops_per_wall_s@mesh_lite_storm", ()),
    "sim.kernel.stale_ratio": ("ops_per_wall_s@mesh_lite_storm", ()),
    "sim.kernel.events_per_wall_s": ("ops_per_wall_s@mesh_lite_storm", ()),
    "sim.kernel.backlog_ratio": ("sim_p99_ms@mesh_lite_storm,attested_visits", ()),
    "sim.metrics.self_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.simnet.exchanges": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.simnet.self_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.latency.scopes": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.firewall.checks": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.firewall.self_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "net.tls.handshakes": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "net.tls.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "net.http.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.encoding.calls": ("ops_per_wall_s@mesh_lite_storm,attested_visits", STORMS),
    "crypto.encoding.bytes": ("ops_per_wall_s@mesh_lite_storm,attested_visits", STORMS),
    "crypto.encoding.self_ms": ("ops_per_wall_s@mesh_lite_storm,attested_visits", STORMS),
    "crypto.aead.calls": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.aead.bytes": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.aead.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.ecdh.calls": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.ecdh.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.ecdsa.verify_calls": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.ecdsa.verify_self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.ecdsa.sign_calls": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "crypto.ecdsa.sign_self_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "crypto.sigcache.hit_ratio": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.x509.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "crypto.xts.calls": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "crypto.xts.bytes": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "crypto.xts.self_ms": ("wall_op_p50_ms@sealed_storage_io", (STORAGE,)),
    "crypto.aes.blocks_per_call": ("wall_op_p50_ms@sealed_storage_io", (STORAGE,)),
    "attest.verify.calls": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "attest.verify.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "attest.verify.sim_ms": ("sim_first_visit_p99_ms@attested_visits", (VISITS,)),
    "attest.kds.fetches": ("sim_first_visit_p99_ms@attested_visits", (VISITS,)),
    "attest.kds.sim_ms": ("sim_first_visit_p99_ms@attested_visits", (VISITS,)),
    "core.browser.navigate_calls": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "core.browser.self_ms": ("ops_per_wall_s@attested_visits", (VISITS,)),
    "core.deployment.deploy_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "core.deployment.self_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "build.image.build_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "build.image.self_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "fleet.gateway.self_ms": ("ops_per_wall_s@mesh_lite_storm", STORMS),
    "fleet.gateway.admittable_per_hello": ("ops_per_wall_s@mesh_lite_storm", STORMS),
    "fleet.backend.utilisation": ("sim_p99_ms@mesh_lite_storm,attested_visits", ()),
    "fleet.backend.wait_sim_ms_per_request": ("sim_p99_ms@mesh_lite_storm,attested_visits", ()),
    "fleet.backend.peak_queue_depth": ("sim_p99_ms@mesh_lite_storm,attested_visits", ()),
    "fleet.health.probes": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "fleet.health.sweeps": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "fleet.health.sweep_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "fleet.health.self_ms": ("ops_per_wall_s@mesh_lite_storm", (MESH,)),
    "fleet.mesh.gossip_applied": ("setup_s@mesh_lite_storm", ()),
    "fleet.admit.self_ms": ("setup_s@mesh_lite_storm,attested_visits", STORMS),
    "storage.verity.reads": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.verity.page_hit_ratio": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.verity.path_hit_ratio": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.verity.self_ms": ("wall_op_p50_ms@sealed_storage_io", (STORAGE,)),
    "storage.crypt.blocks_read": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.crypt.blocks_written": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.crypt.self_ms": ("wall_op_p50_ms@sealed_storage_io", (STORAGE,)),
    "storage.cache.hit_ratio": ("ops_per_wall_s@sealed_storage_io", (STORAGE,)),
    "storage.meter.sim_ms": ("sim_p99_ms@sealed_storage_io", (STORAGE,)),
    "storage.format.self_ms": ("setup_s@sealed_storage_io", (STORAGE, MESH, VISITS)),
    "trace.unattributed_ms": ("none", ()),
    "trace.overhead_ratio": ("none", ()),
    "trace.wall_ms": ("none", ()),
}

#: Spans whose self-time metric is not ``<span>.self_ms``.
SELF_TIME_EXCEPTIONS = {
    "crypto.ecdsa.verify": "crypto.ecdsa.verify_self_ms",
    "crypto.ecdsa.sign": "crypto.ecdsa.sign_self_ms",
}


def self_time_metric(span: str) -> str:
    return SELF_TIME_EXCEPTIONS.get(span, span + ".self_ms")


def load_units():
    """(end-to-end name -> unit, per-layer name -> unit) from
    ``BENCHMARK.json``, whose per-layer metrics must be PER_LAYER's."""
    spec = json.loads(SPEC_FILE.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(per_layer) != set(PER_LAYER):
        raise SystemExit(f"perfbench: {SPEC_FILE.name} and PER_LAYER disagree on "
                         f"{sorted(set(per_layer) ^ set(PER_LAYER))}")
    return end_to_end, per_layer


def reset_process_state() -> None:
    """Cold process-global caches, so no run depends on what ran before."""
    from repro.attest import reset_tracer
    from repro.crypto import batch, ec, sigcache

    sigcache.reset_cache()
    sigcache._key_fingerprint.cache_clear()
    ec.reset_point_cache()
    ec._generator_tables.clear()
    ec._generator_odd_multiples.clear()
    batch.reset_recovery_hints()
    reset_tracer()
    gc.collect()


def round_seed(seed: int, index: int) -> int:
    """The seed of round *index* of a run on *seed*; distinct for
    every (seed, round) pair."""
    return seed * ROUNDS + index


def set_up(workload_class, seed: int, seconds: float):
    reset_process_state()
    started = perf_counter()
    world = workload_class(seed, seconds)
    world.setup()
    return world, perf_counter() - started


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ok(samples: int, q: float) -> bool:
    """At least ten samples lie beyond the *q* quantile."""
    return int(samples * (1.0 - q) + 1e-9) >= 10


def sliced_quantiles(values, q: float) -> list:
    """The *q* quantile of each of up to MAX_SLICES consecutive slices
    of *values*, each of at least SLICE_MIN_OPS."""
    from workloads import quantile

    n = len(values)
    slices = max(1, min(MAX_SLICES, n // SLICE_MIN_OPS))
    return [quantile(values[i * n // slices:(i + 1) * n // slices], q)
            for i in range(slices)]


def end_to_end(rounds, setup_times, names, lines, checks) -> dict:
    """Every end-to-end metric over the rounds of one run."""
    from workloads import quantile

    rates = [r.attempted / r.wall_s for r in rounds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_wall_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib(),
    }
    lines.append(f"setup_s rounds={len(setup_times)} values="
                 + ",".join(f"{t:.4f}" for t in setup_times))
    lines.append(f"ops_per_wall_s rounds={len(rates)} values="
                 + ",".join(f"{rate:.2f}" for rate in rates))
    op_ms = [[s * 1000.0 for s in r.op_wall_s] for r in rounds]
    per_slice = {q: [v for ms in op_ms for v in sliced_quantiles(ms, q)]
                 for q in (0.50, 0.99)}
    slice_ops = min(len(ms) // len(sliced_quantiles(ms, 0.50)) for ms in op_ms)
    metrics["wall_op_p50_ms"] = statistics.median(per_slice[0.50])
    lines.append(f"wall_op ops={sum(map(len, op_ms))} slices={len(per_slice[0.50])} "
                 f"min_slice_ops={slice_ops}")
    lines.append(f"wall_op_p99_ms={statistics.median(per_slice[0.99])} "
                 "(info: median over the slices, not a metric)")
    checks.append(("wall_op_slices_have_10_samples_beyond_p99",
                   percentile_ok(slice_ops, 0.99), f"{slice_ops} ops per slice"))
    pooled = {key: [v for r in rounds for v in r.sim_ms[key]]
              for key in ("all", "first", "again")}
    for name, key, q in (("sim_p50_ms", "all", 0.50), ("sim_p99_ms", "all", 0.99),
                         ("sim_first_visit_p99_ms", "first", 0.99),
                         ("sim_revisit_p50_ms", "again", 0.50)):
        samples = len(pooled[key])
        metrics[name] = quantile(pooled[key], q)
        checks.append((f"{name}_has_10_samples_beyond", percentile_ok(samples, q),
                       f"{samples} samples"))
        lines.append(f"{name} samples={samples} quantile={q}")
    return {name: metrics[name] for name in names}


def health_line(rounds) -> str:
    """The mesh storm's health-sweep cost against its per-session cost."""
    sweeps = sum(r.info["health_sweeps"] for r in rounds)
    sweep_s = sum(r.info["health_sweep_wall_s"] for r in rounds)
    sessions = sum(r.info["sessions"] for r in rounds)
    wall_s = sum(r.wall_s for r in rounds)
    return (f"health_sweeps={sweeps} sessions={sessions} sweep_wall_s={sweep_s:.4f} "
            f"per_session_wall_ms={(wall_s - sweep_s) * 1000.0 / sessions:.5f}")


def layer_metrics(tracer, world, result, untraced, overhead_ratio) -> dict:
    """Every per-layer metric from one traced run (``untraced`` is the
    untraced run of the same seed, for the wall rates)."""
    from repro.crypto import sigcache

    calls, counts, self_s, total_s = (tracer.calls, tracer.counts,
                                      tracer.self_s, tracer.total_s)
    m = {self_time_metric(span): value * 1000.0 for span, value in self_s.items()}
    kernel = getattr(world, "kernel", None)
    if kernel is not None:
        m["sim.kernel.steps"] = kernel.stats.steps
        m["sim.kernel.peak_heap"] = kernel.stats.peak_heap
        m["sim.kernel.stale_ratio"] = kernel.stats.stale_ratio
        m["sim.kernel.events_per_wall_s"] = untraced.info["storm_steps"] / untraced.wall_s
        m["sim.kernel.backlog_ratio"] = result.backlog_ratio
    m["net.simnet.exchanges"] = calls["net.simnet"]
    m["net.latency.scopes"] = calls["net.latency"]
    m["net.firewall.checks"] = calls["net.firewall"]
    m["net.tls.handshakes"] = counts["net.tls.handshakes"]
    m["crypto.encoding.calls"] = calls["crypto.encoding"]
    m["crypto.encoding.bytes"] = counts["crypto.encoding.bytes"]
    m["crypto.aead.calls"] = calls["crypto.aead"]
    m["crypto.aead.bytes"] = counts["crypto.aead.bytes"]
    m["crypto.ecdh.calls"] = calls["crypto.ecdh"]
    m["crypto.ecdsa.verify_calls"] = calls["crypto.ecdsa.verify"]
    m["crypto.ecdsa.sign_calls"] = calls["crypto.ecdsa.sign"]
    hits, misses = sigcache.counters()
    m["crypto.sigcache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["crypto.xts.calls"] = calls["crypto.xts"]
    m["crypto.xts.bytes"] = counts["crypto.xts.bytes"]
    m["crypto.aes.blocks_per_call"] = (
        counts["crypto.aes.blocks"] / calls["crypto.aes"] if calls["crypto.aes"] else 0.0
    )
    m["attest.verify.calls"] = calls["attest.verify"]
    m["attest.verify.sim_ms"] = counts["attest.verify.sim_s"] * 1000.0
    m["attest.kds.fetches"] = counts["attest.kds.fetches"]
    m["attest.kds.sim_ms"] = counts["attest.kds.sim_s"] * 1000.0
    m["core.browser.navigate_calls"] = calls["core.browser"]
    m["core.deployment.deploy_ms"] = total_s.get("core.deployment", 0.0) * 1000.0
    m["build.image.build_ms"] = total_s.get("build.image", 0.0) * 1000.0

    gateways = getattr(world, "gateways", [])
    hellos = sum(g.counters.get("sessions_opened", 0) for g in gateways)
    m["fleet.gateway.admittable_per_hello"] = (
        calls["fleet.gateway.admittable"] / hellos if hellos else 0.0
    )
    servers = {id(b.server): b.server for g in gateways for b in g.backends.values()
               if b.server is not None}.values()
    served = sum(s.served for s in servers)
    sim_window = result.report.get("end_sim_s", 0.0)
    capacity = sum(s.concurrency for s in servers) * sim_window
    m["fleet.backend.utilisation"] = (
        sum(s.busy_seconds for s in servers) / capacity if capacity else 0.0
    )
    m["fleet.backend.wait_sim_ms_per_request"] = (
        sum(s.wait_seconds for s in servers) * 1000.0 / served if served else 0.0
    )
    m["fleet.backend.peak_queue_depth"] = max(
        (s.peak_queue_depth for s in servers), default=0
    )
    m["fleet.health.probes"] = sum(mon.probes_ok + mon.probes_failed
                                   for mon in getattr(world, "monitors", []))
    m["fleet.health.sweeps"] = calls["fleet.health"]
    sweeps = untraced.info.get("health_sweeps", 0)
    m["fleet.health.sweep_ms"] = (
        untraced.info["health_sweep_wall_s"] * 1000.0 / sweeps if sweeps else 0.0
    )
    m["fleet.mesh.gossip_applied"] = sum(g.counters.get("gossip.applied", 0)
                                         for g in gateways)
    volumes = getattr(world, "volumes", None)
    if volumes is not None:
        verity = volumes["rootfs"].layer("verity").stats
        reads = (verity.get("page_hits") + verity.get("path_hits")
                 + verity.get("verify_misses"))
        m["storage.verity.reads"] = calls["storage.verity"]
        m["storage.verity.page_hit_ratio"] = verity.get("page_hits") / reads
        m["storage.verity.path_hit_ratio"] = verity.get("path_hits") / reads
        crypt = volumes["data"].layer("crypt").stats
        m["storage.crypt.blocks_read"] = crypt.get("reads")
        m["storage.crypt.blocks_written"] = crypt.get("writes")
        cache = volumes["data"].layer("cache").stats
        lookups = cache.get("cache_hits") + cache.get("cache_misses")
        m["storage.cache.hit_ratio"] = cache.get("cache_hits") / lookups
        m["storage.meter.sim_ms"] = result.info["meter_sim_s"] * 1000.0
    m["trace.unattributed_ms"] = tracer.unattributed_s * 1000.0
    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.wall_ms"] = tracer.wall_s * 1000.0
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, install
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    workload_class = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = load_units()
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}"]
    checks = []

    seconds = args.seconds / ROUNDS
    if args.trace == 0:
        setup_times, rounds = [], []
        for index in range(ROUNDS):
            world = None
            world, elapsed = set_up(workload_class, round_seed(args.seed, index), seconds)
            setup_times.append(elapsed)
            rounds.append(world.run())
        world = None
        units = end_to_end_units
        metrics = end_to_end(rounds, setup_times, units, lines, checks)
        # Wall figures come from untraced rounds in either mode.
        wall_rounds = rounds
    else:
        seed = round_seed(args.seed, 0)
        world, setup_untraced = set_up(workload_class, seed, seconds)
        untraced = world.run()
        world = None
        reset_process_state()
        tracer = Tracer()
        install(tracer)
        try:
            tracer.start()
            started = perf_counter()
            world = workload_class(seed, seconds)
            world.setup()
            setup_traced = perf_counter() - started
            result = world.run()
            tracer.stop()
        finally:
            tracer.uninstall()
        overhead = (setup_traced + result.wall_s) / (setup_untraced + untraced.wall_s)
        checks.extend(("untraced." + name, passed, detail)
                      for name, passed, detail in untraced.checks)
        checks.append(("traced_digest_equals_untraced",
                       result.digest == untraced.digest,
                       f"{result.digest[:16]} vs {untraced.digest[:16]}"))
        metrics = layer_metrics(tracer, world, result, untraced, overhead)
        self_metrics = {self_time_metric(span) for span in tracer.self_s}
        covered = (sum(metrics.get(name, 0.0) for name in self_metrics)
                   + metrics["trace.unattributed_ms"])
        checks.append((
            "self_times_sum_to_traced_wall",
            self_metrics <= set(PER_LAYER)
            and abs(covered - metrics["trace.wall_ms"]) <= 1e-6 * metrics["trace.wall_ms"],
            f"{covered:.3f} of {metrics['trace.wall_ms']:.3f} ms",
        ))
        for name, value in metrics.items():
            if args.workload in PER_LAYER[name][1] and value == 0:
                checks.append((f"{name}_nonzero", False, "wrapper never fired"))
        units = per_layer_units
        rounds, wall_rounds = [result], [untraced]

    for index, result in enumerate(rounds):
        prefix = f"round{index}." if len(rounds) > 1 else ""
        checks.extend((prefix + name, passed, detail) for name, passed, detail in result.checks)
    digests = [result.digest for result in rounds]
    lines.append("sim_digest=" + hashlib.sha256(",".join(digests).encode()).hexdigest())
    lines.append("sim_round_digests=" + ",".join(digests))
    attempted = sum(result.attempted for result in rounds)
    failed = sum(result.failed for result in rounds)
    lines.append(f"error_rate={failed / attempted if attempted else 1.0} "
                 f"attempted={attempted} failed={failed}")
    if rounds[0].backlog_ratio is not None:
        lines.append("sim_backlog_ratio="
                     + ",".join(str(result.backlog_ratio) for result in rounds))
    if "health_sweeps" in wall_rounds[0].info:
        lines.append(health_line(wall_rounds))
    for name, passed, detail in checks:
        lines.append(f"check {'PASS' if passed else 'FAIL'} {name} {detail}")
    correct = all(passed for _, passed, _ in checks) and failed == 0
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
