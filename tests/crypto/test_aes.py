"""AES known-answer tests (FIPS-197) and batch consistency checks."""

import numpy as np
import pytest

from repro.crypto.aes import _SLICE, AES, AesError
from repro.crypto.drbg import HmacDrbg

# FIPS-197 appendix C example vectors.
_FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
_FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,ct_hex", _FIPS_VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(_FIPS_PLAINTEXT) == bytes.fromhex(ct_hex)

    @pytest.mark.parametrize("key_hex,ct_hex", _FIPS_VECTORS)
    def test_fips197_decrypt(self, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(ct_hex)) == _FIPS_PLAINTEXT

    def test_sbox_round_trip(self):
        from repro.crypto.aes import INV_SBOX, SBOX

        assert sorted(SBOX.tolist()) == list(range(256))
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value
        # Spot checks against the published table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16


class TestBatchConsistency:
    def test_batch_matches_per_block(self):
        rng = HmacDrbg(b"aes-batch")
        cipher = AES(rng.generate(32))
        blocks = [rng.generate(16) for _ in range(37)]
        batch = cipher.encrypt_blocks(b"".join(blocks))
        singles = b"".join(cipher.encrypt_block(b) for b in blocks)
        assert batch == singles

    def test_round_trip_large(self):
        rng = HmacDrbg(b"aes-roundtrip")
        cipher = AES(rng.generate(16))
        data = rng.generate(16 * 1024)
        assert cipher.decrypt_blocks(cipher.encrypt_blocks(data)) == data

    def test_different_keys_differ(self):
        data = b"\x00" * 16
        assert AES(b"k" * 16).encrypt_block(data) != AES(b"j" * 16).encrypt_block(data)

    def test_empty_input(self):
        cipher = AES(b"k" * 16)
        assert cipher.encrypt_blocks(b"") == b""
        assert cipher.decrypt_blocks(b"") == b""

    @pytest.mark.parametrize("num_blocks", [_SLICE, _SLICE + 1])
    def test_slice_bound_matches_per_block(self, num_blocks):
        rng = HmacDrbg(b"aes-slice-%d" % num_blocks)
        cipher = AES(rng.generate(32))
        data = rng.generate(16 * num_blocks)
        batch = cipher.encrypt_blocks(data)
        singles = b"".join(
            cipher.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
        )
        assert batch == singles
        assert cipher.decrypt_blocks(batch) == data

    def test_state_api_leaves_input_intact(self):
        rng = HmacDrbg(b"aes-state")
        cipher = AES(rng.generate(24))
        state = np.frombuffer(rng.generate(16 * 5), dtype=np.uint8).reshape(5, 16).copy()
        before = state.copy()
        encrypted = cipher.encrypt_state(state)
        assert np.array_equal(state, before)
        assert encrypted.tobytes() == cipher.encrypt_blocks(before.tobytes())
        assert cipher.decrypt_blocks(encrypted.tobytes()) == before.tobytes()


class TestErrors:
    @pytest.mark.parametrize("size", [0, 8, 15, 17, 33])
    def test_bad_key_size(self, size):
        with pytest.raises(AesError):
            AES(b"\x00" * size)

    def test_bad_block_size(self):
        cipher = AES(b"k" * 16)
        with pytest.raises(AesError):
            cipher.encrypt_block(b"short")
        with pytest.raises(AesError):
            cipher.encrypt_blocks(b"\x00" * 17)
