"""Cryptographic and coding primitives (all implemented from scratch).

* :mod:`repro.crypto.sha256` — the stack's :mod:`hashlib` digest
  helpers, plus a standalone scalar FIPS 180-4 ``SHA256`` class.
* :mod:`repro.crypto.crc` — CRC-32 / CRC-16-CCITT for the sector codec.
* :mod:`repro.crypto.manchester` — the paper's two-dots-per-bit
  write-once cell coding (``HU``/``UH``; ``HH`` = tamper evidence).
* :mod:`repro.crypto.wom` — Rivest–Shamir write-once-memory code, the
  "more efficient coding" alternative of Section 8.
* :mod:`repro.crypto.hashutil` — the line-hash construction binding
  block data to physical addresses.
"""

from .crc import crc16_ccitt, crc32
from .hashutil import HASH_SIZE, LINE_HASH_DOMAIN, line_hash
from .manchester import (
    CellState,
    DecodeResult,
    bits_to_bytes,
    bytes_to_bits,
    classify_cell,
    decode_bytes,
    decode_pattern,
    encode_bits,
    encode_bytes,
)
from .sha256 import SHA256, sha256_digest

__all__ = [
    "SHA256",
    "sha256_digest",
    "crc32",
    "crc16_ccitt",
    "CellState",
    "DecodeResult",
    "classify_cell",
    "encode_bits",
    "encode_bytes",
    "decode_pattern",
    "decode_bytes",
    "bytes_to_bits",
    "bits_to_bytes",
    "line_hash",
    "LINE_HASH_DOMAIN",
    "HASH_SIZE",
]
