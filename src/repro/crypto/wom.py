"""Write-once-memory (WOM) codes.

Section 8 of the paper notes that the Manchester encoding wastes space
for small line sizes N and that "more efficient coding techniques"
(Moran, Naor, Segev [33]) could be employed.  The classic example —
and the one we implement — is the Rivest–Shamir ``<2,2>/3`` WOM code:
two *generations* of a 2-bit value can be stored in only 3 write-once
bits, because the second write may only turn more bits on.

Generation 1 codewords and their generation-2 complements:

====== ============ ============
value   1st write    2nd write
====== ============ ============
00      000          111
01      001          110
10      010          101
11      100          011
====== ============ ============

Decoding: a codeword of weight <= 1 belongs to generation 1, weight
>= 2 to generation 2.  For the SERO hash block only a single
generation is needed, which gives a rate of 2/3 logical bits per
physical dot versus Manchester's 1/2 — the comparison reproduced by
``test_artifact[sec8-wom]`` in ``tests/test_paper.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import InvalidCellError

_GEN1 = {
    (0, 0): (0, 0, 0),
    (0, 1): (0, 0, 1),
    (1, 0): (0, 1, 0),
    (1, 1): (1, 0, 0),
}
_GEN2 = {value: tuple(1 - bit for bit in word) for value, word in _GEN1.items()}
_DECODE1 = {word: value for value, word in _GEN1.items()}
_DECODE2 = {word: value for value, word in _GEN2.items()}

#: Physical bits per 2-bit symbol.
SYMBOL_SIZE = 3

#: Single-generation expansion factor (physical bits per logical bit).
EXPANSION = 1.5


def encode_pair(value: Tuple[int, int], generation: int = 1) -> Tuple[int, ...]:
    """Encode a 2-bit ``value`` for the given ``generation`` (1 or 2)."""
    if generation == 1:
        return _GEN1[value]
    if generation == 2:
        return _GEN2[value]
    raise ValueError("WOM code supports generations 1 and 2 only")


def decode_word(word: Sequence[int]) -> Tuple[Tuple[int, int], int]:
    """Decode a 3-bit codeword, returning ``(value, generation)``."""
    key = tuple(int(bool(b)) for b in word)
    if len(key) != SYMBOL_SIZE:
        raise ValueError("WOM codeword must be 3 bits")
    weight = sum(key)
    if weight <= 1:
        return _DECODE1[key], 1
    if key in _DECODE2:
        return _DECODE2[key], 2
    raise InvalidCellError(f"invalid WOM codeword {key}")


def rewrite_word(word: Sequence[int], value: Tuple[int, int]) -> Tuple[int, ...]:
    """Overwrite a generation-1 codeword with ``value`` (generation 2).

    Rewriting the *same* value is a no-op (the stored codeword already
    decodes to it).  Raises :class:`InvalidCellError` if the word is
    already generation 2 — a write-once violation, i.e. evidence of
    tampering.
    """
    stored, generation = decode_word(word)
    if stored == value:
        return tuple(int(bool(b)) for b in word)
    if generation != 1:
        raise InvalidCellError("WOM word already at final generation")
    new = encode_pair(value, generation=2)
    if any(o and not n for o, n in zip(word, new)):
        # Should be impossible by construction (gen2 = complement of a
        # weight<=1 word), but guard the write-once invariant anyway.
        raise InvalidCellError("WOM rewrite would clear a set bit")
    return new


@dataclass
class WOMBlock:
    """A sequence of 3-bit WOM words supporting two write generations."""

    words: List[Tuple[int, ...]]

    @classmethod
    def blank(cls, nsymbols: int) -> "WOMBlock":
        """An all-zero block able to hold ``nsymbols`` 2-bit symbols."""
        return cls(words=[(0, 0, 0)] * nsymbols)

    def write(self, bits: Sequence[int]) -> None:
        """Write logical ``bits`` (even count) as the next generation."""
        if len(bits) % 2:
            raise ValueError("WOM block writes whole 2-bit symbols")
        if len(bits) // 2 > len(self.words):
            raise ValueError("WOM block too small for payload")
        for index in range(0, len(bits), 2):
            value = (bits[index], bits[index + 1])
            word = self.words[index // 2]
            if word == (0, 0, 0) and value == (0, 0):
                # fresh word storing 00 stays 000 (generation 1)
                continue
            _, generation = decode_word(word)
            if generation == 1 and word == encode_pair(value, 1):
                continue
            if generation == 1 and sum(word) == 0:
                self.words[index // 2] = encode_pair(value, 1)
            else:
                self.words[index // 2] = rewrite_word(word, value)

    def read(self) -> List[int]:
        """Decode all symbols back to a flat logical bit list."""
        bits: List[int] = []
        for word in self.words:
            value, _ = decode_word(word)
            bits.extend(value)
        return bits


def encode_bits(bits: Sequence[int]) -> List[int]:
    """One-shot generation-1 encoding of a flat bit sequence."""
    if len(bits) % 2:
        raise ValueError("WOM encoding works on whole 2-bit symbols")
    out: List[int] = []
    for index in range(0, len(bits), 2):
        out.extend(encode_pair((bits[index], bits[index + 1]), 1))
    return out


def decode_bits(physical: Sequence[int]) -> List[int]:
    """Decode a flat physical bit sequence produced by any generation."""
    if len(physical) % SYMBOL_SIZE:
        raise ValueError("physical length must be a multiple of 3")
    bits: List[int] = []
    for index in range(0, len(physical), SYMBOL_SIZE):
        value, _ = decode_word(physical[index:index + SYMBOL_SIZE])
        bits.extend(value)
    return bits
