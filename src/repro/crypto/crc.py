"""Cyclic redundancy checks used by the sector format.

The paper assumes ~15% sector overhead "for the sector header, error
correction, and cyclic redundancy check" (Section 3, following Pozidis
et al.).  The sector codec uses two CRCs:

* CRC-32 (IEEE 802.3 reflected polynomial) protecting the sector
  payload, and
* CRC-16-CCITT protecting the small sector header.

The stack takes both from the standard library (``zlib.crc32`` and
``binascii.crc_hqx`` — same polynomial, reflection, initial value and
seeded-continuation convention), exactly as it takes SHA-256 from
``hashlib``.  The table-driven byte-at-a-time loops written from
scratch stay as the reference the tests compare the library against.
"""

from __future__ import annotations

import binascii
import zlib
from typing import List

_CRC32_POLY = 0xEDB88320  # reflected 0x04C11DB7


def _build_crc32_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC32_POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC32_TABLE = _build_crc32_table()


def _crc32_scalar(data: bytes, crc: int) -> int:
    """Byte-at-a-time reference implementation (pre-inverted state)."""
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32/IEEE of ``data``; ``crc`` seeds continuation."""
    return zlib.crc32(data, crc)


_CRC16_POLY = 0x1021  # CCITT


def _build_crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC16_TABLE = _build_crc16_table()


def _crc16_scalar(data: bytes, crc: int) -> int:
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def crc16_ccitt(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16-CCITT (init 0xFFFF) of ``data``."""
    return binascii.crc_hqx(data, crc)
