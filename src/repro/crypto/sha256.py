"""SHA-256: the storage stack's digest helpers, and a FIPS 180-4 class.

The paper's heat-line operation stores "a secure hash (e.g. SHA-256)"
of a line in the write-once block.  Every digest the storage stack
takes — :func:`sha256_digest`, :func:`sha256_hexdigest`,
:func:`sha256_iter` — is :mod:`hashlib`'s; there is no backend to
select.  :class:`SHA256` is a from-scratch scalar implementation kept
as a standalone library piece (like :mod:`repro.crypto.wom`): nothing
in the stack reaches it, and the test suite checks it against the NIST
vectors and :mod:`hashlib`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Union

_BytesLike = Union[bytes, bytearray, memoryview]

# First 32 bits of the fractional parts of the cube roots of the first
# 64 prime numbers (FIPS 180-4 section 4.2.2).
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

# First 32 bits of the fractional parts of the square roots of the
# first 8 primes (initial hash value, FIPS 180-4 section 5.3.3).
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK32 = 0xFFFFFFFF

DIGEST_SIZE = 32
"""SHA-256 digest length in bytes."""

DIGEST_BITS = DIGEST_SIZE * 8
"""SHA-256 digest length in bits (256 — half a hash block's 512 cells
after Manchester encoding)."""


def _rotr(x: int, n: int) -> int:
    """Rotate the 32-bit value ``x`` right by ``n`` bits."""
    return ((x >> n) | (x << (32 - n))) & _MASK32


def _compress(state: list, block: bytes) -> None:
    """Apply the SHA-256 compression function to one 64-byte block."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)

    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = (h + big_s1 + ch + _K[t] + w[t]) & _MASK32
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (big_s0 + maj) & _MASK32
        h, g, f, e = g, f, e, (d + t1) & _MASK32
        d, c, b, a = c, b, a, (t1 + t2) & _MASK32

    state[0] = (state[0] + a) & _MASK32
    state[1] = (state[1] + b) & _MASK32
    state[2] = (state[2] + c) & _MASK32
    state[3] = (state[3] + d) & _MASK32
    state[4] = (state[4] + e) & _MASK32
    state[5] = (state[5] + f) & _MASK32
    state[6] = (state[6] + g) & _MASK32
    state[7] = (state[7] + h) & _MASK32


class SHA256:
    """Incremental pure-Python SHA-256, mirroring the hashlib API."""

    digest_size = DIGEST_SIZE
    block_size = 64
    name = "sha256"

    def __init__(self, data: _BytesLike = b"") -> None:
        self._state = list(_H0)
        self._buffer = bytearray()
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: _BytesLike) -> None:
        """Absorb more message bytes."""
        self._buffer.extend(data)
        self._length += len(data)
        while len(self._buffer) >= 64:
            _compress(self._state, bytes(self._buffer[:64]))
            del self._buffer[:64]

    def copy(self) -> "SHA256":
        """Return an independent copy of the running hash state."""
        clone = SHA256()
        clone._state = list(self._state)
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        """Return the 32-byte digest of the data absorbed so far."""
        # Pad a copy so that update() can continue afterwards.
        state = list(self._state)
        buffer = bytearray(self._buffer)
        bit_length = self._length * 8
        buffer.append(0x80)
        while len(buffer) % 64 != 56:
            buffer.append(0x00)
        buffer += struct.pack(">Q", bit_length)
        for offset in range(0, len(buffer), 64):
            _compress(state, bytes(buffer[offset:offset + 64]))
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()


def sha256_digest(*chunks: _BytesLike) -> bytes:
    """Digest the concatenation of ``chunks``."""
    return sha256_iter(chunks)


def sha256_hexdigest(*chunks: _BytesLike) -> str:
    """Hex digest of the concatenation of ``chunks``."""
    return sha256_iter(chunks).hex()


def sha256_iter(chunks: Iterable[_BytesLike]) -> bytes:
    """Digest an iterable of byte chunks (streaming interface)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()
