"""SECDED Hamming(72,64) error correction for sector frames.

Section 3 budgets ~15% sector overhead for "the sector header, error
correction, and cyclic redundancy check ... taking error correction
appropriate to the medium, the tips, etc. into account".  Patterned
media fail as isolated dot errors (a defective or disturbed dot), so a
single-error-correcting, double-error-detecting Hamming code over
64-bit words — the classic DRAM/disk-header choice — is appropriate.

The codec is vectorised with numpy: codewords are packed to nine bytes
and both parity checks fall out of one XOR over nine gathers from a
per-byte table built at import; decoding gathers each packed byte's
data bits and check contribution from one such table, so whole blocks
(or a whole audit's frames) decode in a handful of array operations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ReadError

DATA_BITS = 64
PARITY_BITS = 8  # 7 Hamming + 1 overall (SECDED)
CODE_BITS = DATA_BITS + PARITY_BITS
DATA_BYTES = DATA_BITS // 8


#: Codeword positions 1..71 follow the standard Hamming convention:
#: positions that are powers of two hold parity, the rest hold data,
#: so a single error's Hamming syndrome *is* its codeword position.
#: Position 0 holds the overall parity bit.
_PARITY_POSITIONS = np.asarray([1, 2, 4, 8, 16, 32, 64], dtype=np.int64)
_DATA_POSITIONS = np.setdiff1d(np.arange(1, CODE_BITS), _PARITY_POSITIONS)
_PARITY_SHIFTS = np.arange(7, dtype=np.uint8)
CODE_BYTES = CODE_BITS // 8


def _build_check_table() -> np.ndarray:
    """Per-byte parity-check table for packed codewords.

    A 72-bit codeword packs MSB-first into nine bytes; entry
    ``[k, b]`` is the contribution of byte ``k`` holding value ``b``:
    the XOR of the codeword positions of its set bits (the Hamming
    syndrome, which fits the low 7 bits since positions stay below
    128) with the parity of its popcount in bit 7 (the overall
    parity).  XOR-ing the nine gathers of a word gives both checks.
    """
    values = np.arange(256, dtype=np.uint8)
    bits = np.unpackbits(values[:, None], axis=1)  # (256, 8), MSB first
    table = np.zeros((CODE_BYTES, 256), dtype=np.uint8)
    for k in range(CODE_BYTES):
        for j in range(8):
            table[k] ^= bits[:, j] * np.uint8((8 * k + j) | 0x80)
    return table


_CHECK_TABLE = _build_check_table()
_BYTE_INDEX = np.arange(CODE_BYTES)


def _build_decode_table() -> np.ndarray:
    """Per-byte decode table for packed codewords.

    The 64 data bits keep their order, so data byte ``j`` takes its
    bits from codeword bytes ``j`` and ``j + 1`` only.  Entry
    ``[k, v]`` describes byte ``k`` of a word holding value ``v``, one
    little-endian byte per role:

    * byte 0: its bits' places in data byte ``k``;
    * byte 1: its bits' places in data byte ``k - 1``;
    * byte 2: its check-table contribution.

    So data byte ``j`` is entry ``j``'s byte 0 OR entry ``j + 1``'s
    byte 1, and the check byte is the XOR of all nine entries' byte 2.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                         axis=1).astype(np.uint32)  # (256, 8), MSB first
    weights = np.uint32(1) << np.arange(7, -1, -1, dtype=np.uint32)
    table = _CHECK_TABLE.astype("<u4") << 16
    for j in range(DATA_BYTES):
        # positions of data byte j's bits, MSB first, from byte j's start
        positions = _DATA_POSITIONS[8 * j:8 * j + 8] - 8 * j
        high = positions < 8
        table[j] |= bits[:, positions[high]] @ weights[high]
        table[j + 1] |= (bits[:, positions[~high] - 8] @ weights[~high]) << 8
    return table.reshape(-1)


_DECODE_TABLE = _build_decode_table()
_DECODE_OFFSETS = np.arange(CODE_BYTES, dtype=np.intp) << 8


def _checks(code: np.ndarray) -> np.ndarray:
    """Per-word check byte of an (nwords, 72) bit matrix: Hamming
    syndrome in the low 7 bits, overall parity in bit 7."""
    packed = np.packbits(code, axis=1)
    return np.bitwise_xor.reduce(_CHECK_TABLE[_BYTE_INDEX, packed], axis=1)


def _bytes_to_words(data: bytes) -> np.ndarray:
    """Unpack bytes into an (nwords, 64) bit matrix, MSB-first."""
    if len(data) % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw)
    return bits.reshape(-1, DATA_BITS)


def encode(data: bytes) -> np.ndarray:
    """Encode ``data`` (multiple of 8 bytes) into a flat bit array.

    Returns a uint8 array of length ``len(data)//8 * 72`` laid out as
    consecutive 72-bit codewords.
    """
    words = _bytes_to_words(data)
    code = np.zeros((words.shape[0], CODE_BITS), dtype=np.uint8)
    code[:, _DATA_POSITIONS] = words
    # with the parity positions still zero the syndrome of the data
    # bits *is* the Hamming parity (parity j sits at position 2**j),
    # and setting it leaves bit 7 one XOR short of the overall parity
    checks = _checks(code)
    hamming = (checks[:, None] >> _PARITY_SHIFTS) & 1  # (nwords, 7)
    code[:, _PARITY_POSITIONS] = hamming
    code[:, 0] = (checks >> 7) ^ (hamming.sum(axis=1) & 1)
    return code.reshape(-1)


class ECCResult:
    """Decode outcome: the payload plus correction statistics.

    Attributes:
        data: corrected payload bytes.
        corrected: number of single-bit corrections applied.
    """

    __slots__ = ("data", "corrected")

    def __init__(self, data: bytes, corrected: int) -> None:
        self.data = data
        self.corrected = corrected


def _decode_lookup(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Data bytes ``(nwords, 8)`` and check bytes ``(nwords,)`` of
    packed ``(nwords, 9)`` codewords: one gather from the decode table."""
    entries = _DECODE_TABLE[packed + _DECODE_OFFSETS].view(np.uint8)
    entries = entries.reshape(-1, CODE_BYTES, 4)
    return (entries[:, :DATA_BYTES, 0] | entries[:, 1:, 1],
            np.bitwise_xor.reduce(entries[:, :, 2], axis=1))


def decode(bits: np.ndarray) -> ECCResult:
    """Decode a flat codeword bit array produced by :func:`encode`.

    Corrects any single-bit error per 72-bit word; raises
    :class:`~repro.errors.ReadError` on an uncorrectable (double)
    error.
    """
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1, CODE_BITS)
    packed = np.packbits(arr).reshape(-1, CODE_BYTES)
    data, checks = _decode_lookup(packed)
    syndromes = checks & 0x7F
    overall = checks >> 7
    # a flipped overall-parity bit alone (position 0: syndrome 0,
    # parity tripped) is a single error that leaves the data intact
    corrected = int(np.count_nonzero(checks == 0x80))

    bad = syndromes != 0
    if bad.any():
        # single error iff overall parity also trips; double otherwise
        double = bad & (overall == 0)
        if double.any():
            raise ReadError(
                f"uncorrectable ECC error in {int(double.sum())} word(s)")
        rows = np.nonzero(bad)[0]
        cols = syndromes[rows].astype(np.intp)
        if (cols >= CODE_BITS).any():
            # syndromes 72..127 name no position: three or more errors
            raise ReadError("invalid ECC syndrome")
        packed[rows, cols >> 3] ^= (0x80 >> (cols & 7)).astype(np.uint8)
        corrected += int(len(rows))
        data = _decode_lookup(packed)[0]

    return ECCResult(data=data.tobytes(), corrected=corrected)


def codeword_length(payload_bytes: int) -> int:
    """Encoded bit length for a payload of ``payload_bytes`` bytes."""
    if payload_bytes % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    return payload_bytes // DATA_BYTES * CODE_BITS
