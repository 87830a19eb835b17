"""SECDED Hamming(72,64) error correction for sector frames.

Section 3 budgets ~15% sector overhead for "the sector header, error
correction, and cyclic redundancy check ... taking error correction
appropriate to the medium, the tips, etc. into account".  Patterned
media fail as isolated dot errors (a defective or disturbed dot), so a
single-error-correcting, double-error-detecting Hamming code over
64-bit words — the classic DRAM/disk-header choice — is appropriate.

The codec is vectorised with numpy: codewords are packed to nine bytes
and both parity checks fall out of one XOR over nine gathers from a
per-byte table built at import, so whole blocks encode/decode in a
handful of array operations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ReadError

DATA_BITS = 64
PARITY_BITS = 8  # 7 Hamming + 1 overall (SECDED)
CODE_BITS = DATA_BITS + PARITY_BITS
DATA_BYTES = DATA_BITS // 8


def _build_layout() -> Tuple[np.ndarray, np.ndarray]:
    """Construct the codeword layout.

    Codeword positions 1..71 follow the standard Hamming convention:
    positions that are powers of two hold parity, the rest hold data.
    Position 0 holds the overall parity bit.  Returns:

    * ``data_positions`` — codeword index of each of the 64 data bits,
    * ``syndrome_to_codeword`` — length-128 map from Hamming syndrome
      to codeword position (0 where the syndrome is unused).
    """
    parity_positions = [1, 2, 4, 8, 16, 32, 64]
    data_positions = [p for p in range(1, CODE_BITS) if p not in parity_positions]
    assert len(data_positions) == DATA_BITS
    syndrome_map = np.zeros(128, dtype=np.int64)
    for pos in range(1, CODE_BITS):
        syndrome_map[pos] = pos
    return np.asarray(data_positions, dtype=np.int64), syndrome_map


_DATA_POSITIONS, _SYNDROME_MAP = _build_layout()
_PARITY_POSITIONS = np.asarray([1, 2, 4, 8, 16, 32, 64], dtype=np.int64)
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


def _words_to_bytes(words: np.ndarray) -> bytes:
    """Pack an (nwords, 64) bit matrix back into bytes."""
    return np.packbits(words.reshape(-1)).tobytes()


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


def decode(bits: np.ndarray) -> ECCResult:
    """Decode a flat codeword bit array produced by :func:`encode`.

    Corrects any single-bit error per 72-bit word; raises
    :class:`~repro.errors.ReadError` on an uncorrectable (double)
    error.
    """
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1, CODE_BITS)
    checks = _checks(arr)
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
        cols = _SYNDROME_MAP[syndromes[rows]]
        if (cols >= CODE_BITS).any():
            raise ReadError("invalid ECC syndrome")
        arr = arr.copy()
        arr[rows, cols] ^= 1
        corrected += int(len(rows))

    data_words = arr[:, _DATA_POSITIONS]
    return ECCResult(data=_words_to_bytes(data_words), corrected=corrected)


def codeword_length(payload_bytes: int) -> int:
    """Encoded bit length for a payload of ``payload_bytes`` bytes."""
    if payload_bytes % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    return payload_bytes // DATA_BYTES * CODE_BITS
