"""Manchester cell coding for electrically written (heated) data.

Following Molnar et al. (transplanted from PROM to magnetic dots by the
paper), each logical bit occupies a *cell* of two physical dots whose
only write-once property is "heated" (``H``) or "unheated" (``U``):

====== =================== =========================================
cell    meaning             notes
====== =================== =========================================
``UU``  unused              every cell starts out unheated
``HU``  logical 0           (Fig 3 caption)
``UH``  logical 1           (Fig 3 caption)
``HH``  evidence of tamper  the only reachable state from 0 or 1
====== =================== =========================================

Because heating is irreversible, the only way to alter a written cell
is to heat its other dot, which produces the illegal ``HH``.  The
encoding also guarantees that a heated dot has at most one heated
neighbour inside a cell, which spreads heat-damage risk (Section 3).

The codec below works on sequences of booleans where ``True`` means
*heated*.  Decoding classifies every cell and never silently accepts
an illegal pattern.

The entry points the stack calls (:func:`encode_bytes`,
:func:`decode_pattern`, :func:`decode_bytes`, :func:`bytes_to_bits`,
:func:`bits_to_bytes`) are numpy (``unpackbits``/``packbits`` plus
strided cell classification) and nothing else.  The per-cell
definitions — :func:`encode_bits`, :func:`classify_cell`,
:func:`_decode_pattern_scalar` — are called by nothing in the stack:
they are the reference the tests compare the codec against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import InvalidCellError


class CellState(enum.Enum):
    """Decoded state of one two-dot Manchester cell."""

    UNUSED = "UU"
    ZERO = "HU"
    ONE = "UH"
    TAMPERED = "HH"


#: Number of physical dots used per logical bit.
CELL_SIZE = 2

#: Expansion factor of the code (physical bits per logical bit).
EXPANSION = 2.0


def encode_bits(bits: Sequence[int]) -> List[bool]:
    """Encode logical ``bits`` (0/1) into a heated-dot pattern.

    Returns a list twice as long where ``True`` marks a dot that must
    be heated.  Logical 0 -> ``HU`` (heat the first dot of the cell),
    logical 1 -> ``UH`` (heat the second dot).
    """
    pattern: List[bool] = []
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"logical bit must be 0 or 1, got {bit!r}")
        if bit == 0:
            pattern.extend((True, False))
        else:
            pattern.extend((False, True))
    return pattern


def encode_bytes(data: bytes) -> Sequence[bool]:
    """Encode ``data`` MSB-first into a heated-dot pattern (a bool
    ndarray, equal element for element to
    ``encode_bits(bytes_to_bits(data))``)."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pattern = np.zeros(bits.size * CELL_SIZE, dtype=bool)
    pattern[0::2] = bits == 0
    pattern[1::2] = bits == 1
    return pattern


def classify_cell(first: bool, second: bool) -> CellState:
    """Classify one cell given the heated flags of its two dots."""
    if first and second:
        return CellState.TAMPERED
    if first:
        return CellState.ZERO
    if second:
        return CellState.ONE
    return CellState.UNUSED


@dataclass
class DecodeResult:
    """Outcome of decoding a heated-dot pattern.

    Attributes:
        bits: decoded logical bits; tampered or unused cells contribute
            ``None`` placeholders so positions stay aligned.
        tampered_cells: indices of cells decoding to ``HH``.
        unused_cells: indices of cells decoding to ``UU``.
    """

    bits: List  # List[Optional[int]]
    tampered_cells: List[int]
    unused_cells: List[int]

    @property
    def is_tampered(self) -> bool:
        """True when at least one cell shows the illegal ``HH``."""
        return bool(self.tampered_cells)

    @property
    def is_complete(self) -> bool:
        """True when every cell holds a valid logical 0 or 1."""
        return not self.tampered_cells and not self.unused_cells

    def to_bytes(self) -> bytes:
        """Pack the decoded bits into bytes (requires completeness)."""
        if not self.is_complete:
            raise InvalidCellError(
                "cannot pack an incomplete/tampered Manchester pattern: "
                f"{len(self.tampered_cells)} tampered, "
                f"{len(self.unused_cells)} unused cells"
            )
        return bits_to_bytes(self.bits)


def decode_pattern(pattern: Sequence[bool]) -> DecodeResult:
    """Decode a heated-dot ``pattern`` into logical bits.

    The pattern length must be even (whole cells).
    """
    if len(pattern) % CELL_SIZE:
        raise ValueError("Manchester pattern length must be even")
    arr = np.asarray(pattern, dtype=bool)
    first = arr[0::2]
    second = arr[1::2]
    tampered = np.flatnonzero(first & second)
    unused = np.flatnonzero(~first & ~second)
    # 1 where ONE, 0 where ZERO, placeholder elsewhere
    bits: List = second.astype(np.int64).tolist()
    for index in tampered:
        bits[index] = None
    for index in unused:
        bits[index] = None
    return DecodeResult(bits=bits, tampered_cells=tampered.tolist(),
                        unused_cells=unused.tolist())


def _decode_pattern_scalar(pattern: Sequence[bool]) -> DecodeResult:
    """Per-cell reference decoder."""
    bits: List = []
    tampered: List[int] = []
    unused: List[int] = []
    for index in range(0, len(pattern), CELL_SIZE):
        state = classify_cell(pattern[index], pattern[index + 1])
        if state is CellState.ZERO:
            bits.append(0)
        elif state is CellState.ONE:
            bits.append(1)
        elif state is CellState.TAMPERED:
            bits.append(None)
            tampered.append(index // CELL_SIZE)
        else:
            bits.append(None)
            unused.append(index // CELL_SIZE)
    return DecodeResult(bits=bits, tampered_cells=tampered, unused_cells=unused)


def decode_bytes(pattern: Sequence[bool]) -> bytes:
    """Decode a pattern straight to bytes, raising on tamper/unused."""
    arr = np.asarray(pattern, dtype=bool)
    if arr.size % CELL_SIZE:
        raise ValueError("Manchester pattern length must be even")
    first = arr[0::2]
    second = arr[1::2]
    if (first == second).any():
        # tampered (HH) or unused (UU) cells: fall back for the
        # detailed error message
        return decode_pattern(pattern).to_bytes()
    # every cell holds exactly one heated dot: the bit is dot two
    return bits_to_bytes(second)


# -- bit packing helpers -----------------------------------------------------


def bytes_to_bits(data: bytes) -> List[int]:
    """Unpack bytes into a list of bits, most significant bit first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack an MSB-first bit sequence (multiple of 8 long) into bytes."""
    if len(bits) % 8:
        raise ValueError("bit sequence length must be a multiple of 8")
    arr = np.asarray(bits, dtype=np.uint8) & 1
    return np.packbits(arr).tobytes()
