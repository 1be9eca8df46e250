"""AES-128/192/256 implemented from scratch, batch-vectorised with numpy.

The dm-crypt substrate (``repro.storage.dm_crypt``) encrypts whole disk
volumes, so single-block Python AES would be hopeless.  This module
implements the Rijndael cipher exactly (the S-box and round constants are
*derived*, not pasted, and validated against FIPS-197 vectors in the test
suite) but applies every round to an ``(n, 16)`` uint8 array of blocks at
once, which turns the per-block cost into a handful of numpy table
lookups and XORs.
"""

from __future__ import annotations

import numpy as np


class AesError(ValueError):
    """Raised for invalid key or block sizes."""


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> "tuple[np.ndarray, np.ndarray]":
    # Multiplicative inverses via brute force (the table is tiny),
    # followed by the affine transformation of FIPS-197 section 5.1.1.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        b = inverse[x]
        result = 0
        for bit in range(8):
            value = (
                (b >> bit)
                ^ (b >> ((bit + 4) % 8))
                ^ (b >> ((bit + 5) % 8))
                ^ (b >> ((bit + 6) % 8))
                ^ (b >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= value << bit
        sbox[x] = result
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

_MUL = {
    factor: np.array([_gf_mul(x, factor) for x in range(256)], dtype=np.uint8)
    for factor in (2, 3, 9, 11, 13, 14)
}

# Flat state layout: index = 4*column + row (matches input byte order).
_SHIFT_ROWS = np.array(
    [4 * ((i // 4 + i % 4) % 4) + i % 4 for i in range(16)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.array(
    [4 * ((i // 4 - i % 4) % 4) + i % 4 for i in range(16)], dtype=np.intp
)

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


def _expand_key(key: bytes) -> np.ndarray:
    """FIPS-197 key expansion -> array of (rounds+1, 16) round keys."""
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [int(SBOX[b]) for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [int(SBOX[b]) for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    flat = [b for word in words for b in word]
    return np.array(flat, dtype=np.uint8).reshape(rounds + 1, 16)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    cols = state.reshape(-1, 4, 4)  # (n, column, row)
    a0, a1, a2, a3 = cols[:, :, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]
    m2, m3 = _MUL[2], _MUL[3]
    out = np.empty_like(cols)
    out[:, :, 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
    out[:, :, 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
    return out.reshape(-1, 16)


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    cols = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = cols[:, :, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]
    m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    out = np.empty_like(cols)
    out[:, :, 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
    out[:, :, 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
    out[:, :, 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
    out[:, :, 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return out.reshape(-1, 16)


class AES:
    """The AES block cipher for a fixed key.

    ``encrypt_blocks``/``decrypt_blocks`` operate on any number of
    16-byte blocks at once (ECB permutation); chaining modes live in
    :mod:`repro.crypto.modes`.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise AesError(f"invalid AES key size {len(key)}")
        self._round_keys = _expand_key(key)
        self._rounds = self._round_keys.shape[0] - 1
        self.key_size = len(key)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt ``len(data)/16`` blocks independently (raw ECB)."""
        state = self._to_state(data)
        state ^= self._round_keys[0]
        for round_index in range(1, self._rounds):
            state = SBOX[state]
            state = state[:, _SHIFT_ROWS]
            state = _mix_columns(state)
            state ^= self._round_keys[round_index]
        state = SBOX[state]
        state = state[:, _SHIFT_ROWS]
        state ^= self._round_keys[self._rounds]
        return state.tobytes()

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Invert :meth:`encrypt_blocks`."""
        state = self._to_state(data)
        state ^= self._round_keys[self._rounds]
        for round_index in range(self._rounds - 1, 0, -1):
            state = state[:, _INV_SHIFT_ROWS]
            state = INV_SBOX[state]
            state ^= self._round_keys[round_index]
            state = _inv_mix_columns(state)
        state = state[:, _INV_SHIFT_ROWS]
        state = INV_SBOX[state]
        state ^= self._round_keys[0]
        return state.tobytes()

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise AesError("block must be 16 bytes")
        return self.encrypt_blocks(block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise AesError("block must be 16 bytes")
        return self.decrypt_blocks(block)

    def encrypt_state(self, state: np.ndarray) -> np.ndarray:
        """Encrypt an (n, 16) uint8 array in place-friendly numpy form."""
        state = state ^ self._round_keys[0]
        for round_index in range(1, self._rounds):
            state = SBOX[state]
            state = state[:, _SHIFT_ROWS]
            state = _mix_columns(state)
            state ^= self._round_keys[round_index]
        state = SBOX[state]
        state = state[:, _SHIFT_ROWS]
        state ^= self._round_keys[self._rounds]
        return state

    @staticmethod
    def _to_state(data: bytes) -> np.ndarray:
        if len(data) % 16:
            raise AesError("data length must be a multiple of 16")
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, 16).copy()
