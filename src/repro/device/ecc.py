"""SECDED Hamming(72,64) error correction for sector frames.

Section 3 budgets ~15% sector overhead for "the sector header, error
correction, and cyclic redundancy check ... taking error correction
appropriate to the medium, the tips, etc. into account".  Patterned
media fail as isolated dot errors (a defective or disturbed dot), so a
single-error-correcting, double-error-detecting Hamming code over
64-bit words — the classic DRAM/disk-header choice — is appropriate.

The codec is vectorised with numpy over tables built at import.
Codewords are packed to nine bytes.  Encoding gathers each data byte's
packed codeword bits and check contribution from one table, XORs a
word's eight gathers, and adds the parity bits its check byte implies
from a second table; decoding gathers each packed byte's data bits and
check contribution from one such table, so whole blocks (or a whole
audit's frames) encode and decode in a handful of array operations.
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


def _build_encode_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Per-data-byte encode table and per-check-byte parity table.

    Entry ``[j, v]`` of the first describes data byte ``j`` of a word
    holding value ``v``, as 16 bytes (two ``uint64`` lanes): bytes 0–8
    hold its bits placed at their codeword data positions, packed
    MSB-first, and byte 9 its check-table contribution.  The bytes of a
    word touch disjoint positions, so XOR-ing its eight entries gives
    its packed data bits and, in byte 9, the check byte of the word
    with its parity positions still zero.  With those positions zero
    the Hamming syndrome *is* the Hamming parity (parity ``i`` sits at
    position ``2**i``), so the second table, keyed by that check byte,
    holds the packed parity bits it implies: the seven Hamming bits,
    and at position 0 the overall parity, which also covers them.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    data = np.zeros((DATA_BYTES, 256, 16), dtype=np.uint8)
    for i, pos in enumerate(_DATA_POSITIONS):
        j, k = divmod(i, 8)
        data[j, :, pos >> 3] |= bits[:, k] * np.uint8(0x80 >> (pos & 7))
        data[j, :, 9] ^= bits[:, k] * np.uint8(pos | 0x80)
    check = np.arange(256)
    parity = np.zeros((256, 16), dtype=np.uint8)
    hamming_ones = np.zeros(256, dtype=np.int64)
    for i, pos in enumerate(_PARITY_POSITIONS):
        bit = (check >> i) & 1
        parity[:, pos >> 3] |= (bit * (0x80 >> (pos & 7))).astype(np.uint8)
        hamming_ones += bit
    parity[:, 0] |= ((((check >> 7) ^ hamming_ones) & 1) << 7).astype(np.uint8)
    return (data.view(np.uint64).reshape(DATA_BYTES * 256, 2),
            parity.view(np.uint64))


_ENCODE_TABLE, _PARITY_TABLE = _build_encode_tables()
_ENCODE_OFFSETS = (np.arange(DATA_BYTES, dtype=np.intp) << 8)[:, None]


def encode(data: bytes) -> np.ndarray:
    """Encode ``data`` (multiple of 8 bytes) into a flat bit array.

    Returns a uint8 array of length ``len(data)//8 * 72`` laid out as
    consecutive 72-bit codewords.  One gather per data byte from the
    encode table, XOR-ed lane by lane, then one gather of the parity
    bits by check byte; the packed words unpack to the dots.
    """
    if len(data) % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, DATA_BYTES)
    lanes = _ENCODE_TABLE.take(raw.T + _ENCODE_OFFSETS, axis=0)
    word = lanes[0] ^ lanes[1]  # (nwords, 2) uint64
    for lane in lanes[2:]:
        word ^= lane
    packed = word.view(np.uint8)
    word ^= _PARITY_TABLE.take(packed[:, 9], axis=0)
    return np.unpackbits(packed[:, :CODE_BYTES], axis=1).reshape(-1)


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
    packed ``(nwords, 9)`` codewords: one gather from the decode table.

    The check bytes XOR the nine columns one by one: a
    ``bitwise_xor.reduce`` along the short axis takes about twice as
    long on a whole audit's frames.
    """
    entries = _DECODE_TABLE.take(packed + _DECODE_OFFSETS).view(np.uint8)
    entries = entries.reshape(-1, CODE_BYTES, 4)
    checks = entries[:, 0, 2] ^ entries[:, 1, 2]
    for k in range(2, CODE_BYTES):
        checks ^= entries[:, k, 2]
    return entries[:, :DATA_BYTES, 0] | entries[:, 1:, 1], checks


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
