"""Block cipher modes of operation: XTS-plain64, CTR, and an AEAD.

``XtsCipher`` is the construction dm-crypt uses as ``aes-xts-plain64``
(the exact cipher spec the paper configures in section 6.3.1): each
sector's tweak is the little-endian sector number encrypted under the
second key, advancing by multiplication with alpha in GF(2^128) per
16-byte block.  Tweak chains are vectorised across sectors and built by
doubling the known prefix of every chain (block j's tweak is alpha^j
times block 0's), so a call costs log2(blocks per sector) numpy passes
plus the AES rounds, regardless of how many sectors it covers.

``AeadCipher`` is an encrypt-then-MAC AEAD (AES-CTR + HMAC-SHA-256) used
for sealed storage payloads and TLS records.
"""

from __future__ import annotations

import hmac as _hmac
from hashlib import sha256

import numpy as np

from .aes import AES, AesError


def _times_alpha_pow(limbs: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write ``limbs * alpha**k`` in GF(2^128) into *out*, for 1 <= k <= 64.

    *limbs* is a (..., 2) array of (low, high) little-endian 64-bit
    halves.  The k bits shifted out past x^127 fold back in through
    x^128 = x^7 + x^2 + x + 1.  NumPy defines a shift by 64 as zero.
    """
    lo, hi = limbs[..., 0], limbs[..., 1]
    top = hi >> (64 - k)
    out[..., 0] = (lo << k) ^ top ^ (top << 1) ^ (top << 2) ^ (top << 7)
    out[..., 1] = (hi << k) ^ (lo >> (64 - k)) ^ (top >> 63) ^ (top >> 62) ^ (top >> 57)


class XtsCipher:
    """AES-XTS with plain64 sector tweaks (dm-crypt compatible shape).

    Parameters
    ----------
    key:
        Concatenation of the data key and the tweak key; 32 bytes for
        AES-128-XTS or 64 bytes for AES-256-XTS.
    sector_size:
        Bytes per sector; must be a multiple of 16.  dm-crypt uses 512 or
        4096.
    """

    def __init__(self, key: bytes, sector_size: int = 4096):
        if len(key) not in (32, 64):
            raise AesError("XTS key must be 32 or 64 bytes (two AES keys)")
        if sector_size % 16 or sector_size <= 0:
            raise AesError("sector size must be a positive multiple of 16")
        half = len(key) // 2
        if key[:half] == key[half:]:
            raise AesError("XTS data and tweak keys must differ")
        self._data_cipher = AES(key[:half])
        self._tweak_cipher = AES(key[half:])
        self.sector_size = sector_size
        self._blocks_per_sector = sector_size // 16

    def _tweaks(self, first_sector: int, num_sectors: int) -> np.ndarray:
        """Return (num_sectors * blocks_per_sector, 16) tweak array."""
        sectors = np.arange(first_sector, first_sector + num_sectors, dtype=np.uint64)
        seed = np.zeros((num_sectors, 16), dtype=np.uint8)
        seed[:, :8] = sectors.astype("<u8").view(np.uint8).reshape(num_sectors, 8)
        initial = self._tweak_cipher.encrypt_state(seed)
        # Each tweak is two little-endian 64-bit limbs, and block j's is
        # alpha^j times block 0's: double the known prefix of every
        # sector's chain at once, log2(blocks_per_sector) numpy steps.
        bps = self._blocks_per_sector
        limbs = np.empty((num_sectors, bps, 2), dtype="<u8")
        limbs[:, 0] = initial.view("<u8")
        filled = 1
        while filled < bps:
            step = min(filled, 64, bps - filled)
            _times_alpha_pow(limbs[:, filled - step : filled], step,
                             limbs[:, filled : filled + step])
            filled += step
        return limbs.view(np.uint8).reshape(num_sectors * bps, 16)

    def _check(self, data: bytes, first_sector: int) -> int:
        if first_sector < 0:
            raise AesError("sector index must be non-negative")
        if len(data) % self.sector_size:
            raise AesError(
                f"data length {len(data)} is not a multiple of the "
                f"sector size {self.sector_size}"
            )
        return len(data) // self.sector_size

    def encrypt(self, plaintext: bytes, first_sector: int = 0) -> bytes:
        """Encrypt whole sectors starting at *first_sector*."""
        num_sectors = self._check(plaintext, first_sector)
        if num_sectors == 0:
            return b""
        tweaks = self._tweaks(first_sector, num_sectors)
        state = np.frombuffer(plaintext, dtype=np.uint8).reshape(-1, 16)
        state = state ^ tweaks
        state = self._data_cipher.encrypt_state(state)
        state ^= tweaks
        return state.tobytes()

    def decrypt(self, ciphertext: bytes, first_sector: int = 0) -> bytes:
        """Invert :meth:`encrypt` for the same sector range."""
        num_sectors = self._check(ciphertext, first_sector)
        if num_sectors == 0:
            return b""
        tweaks = self._tweaks(first_sector, num_sectors)
        data = (np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, 16) ^ tweaks)
        plain = np.frombuffer(
            self._data_cipher.decrypt_blocks(data.tobytes()), dtype=np.uint8
        ).reshape(-1, 16)
        return (plain ^ tweaks).tobytes()


class CtrCipher:
    """AES in counter mode with a 128-bit big-endian counter block."""

    def __init__(self, key: bytes):
        self._cipher = AES(key)

    def _keystream(self, initial_counter: bytes, length: int) -> bytes:
        if len(initial_counter) != 16:
            raise AesError("counter block must be 16 bytes")
        num_blocks = (length + 15) // 16
        base = int.from_bytes(initial_counter, "big")
        counters = b"".join(
            ((base + i) % (1 << 128)).to_bytes(16, "big") for i in range(num_blocks)
        )
        return self._cipher.encrypt_blocks(counters)[:length]

    def process(self, data: bytes, initial_counter: bytes) -> bytes:
        """Encrypt or decrypt (CTR is an involution) *data*."""
        stream = self._keystream(initial_counter, len(data))
        return (
            np.frombuffer(data, dtype=np.uint8)
            ^ np.frombuffer(stream, dtype=np.uint8)
        ).tobytes() if data else b""


class AeadError(ValueError):
    """Raised when AEAD authentication fails."""


class AeadCipher:
    """Encrypt-then-MAC AEAD: AES-CTR for confidentiality, HMAC-SHA-256
    over (aad, nonce, ciphertext) for integrity.

    The 32-byte key is split by HKDF-style labelled hashing into an
    encryption key and a MAC key so the two uses never share key bits.
    """

    TAG_SIZE = 32
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise AesError("AEAD key must be 32 bytes")
        self._enc_key = sha256(b"aead-enc" + key).digest()
        self._mac_key = sha256(b"aead-mac" + key).digest()
        self._ctr = CtrCipher(self._enc_key)

    def _counter_block(self, nonce: bytes) -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise AesError(f"nonce must be {self.NONCE_SIZE} bytes")
        return nonce + b"\x00\x00\x00\x01"

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = _hmac.new(self._mac_key, digestmod=sha256)
        mac.update(len(aad).to_bytes(8, "big"))
        mac.update(aad)
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        ciphertext = self._ctr.process(plaintext, self._counter_block(nonce))
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`AeadError` on any tampering."""
        if len(sealed) < self.TAG_SIZE:
            raise AeadError("sealed message too short")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._tag(nonce, ciphertext, aad)
        if not _hmac.compare_digest(tag, expected):
            raise AeadError("authentication tag mismatch")
        return self._ctr.process(ciphertext, self._counter_block(nonce))
