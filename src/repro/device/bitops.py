"""The four low-level bit operations of Section 3.

``mwb``/``mrb`` are thin passthroughs to the medium.  ``ewb`` heats a
dot.  ``erb`` is *not* a primitive: it "is built out of magnetic read
and write operations" as the atomic five-step sequence the paper
specifies, and this module implements exactly that sequence:

1. ``mrb`` the original bit,
2. ``mwb`` the inverse,
3. ``mrb`` to verify the inverse reads back,
4. ``mwb`` the original again,
5. ``mrb`` to verify the original reads back.

If either verification fails the dot "has lost its out-of-plane
property" and ``erb`` returns ``H``, else ``U``.  On a heated dot each
verification read is a coin flip, so a single sequence misses the dot
with probability 1/4; the ``rounds`` parameter repeats steps 2-5 to
drive the miss rate to (1/4)^rounds (the sector layer adds retries on
top, see :mod:`repro.device.sector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..medium.medium import PatternedMedium

#: erb miss probability per verification round on a heated dot.
ERB_MISS_PER_ROUND = 0.25


@dataclass
class BitOps:
    """Bit-level operations over one medium."""

    medium: PatternedMedium

    def mrb(self, index: int) -> int:
        """Magnetic read bit: stored bit (random for a heated dot)."""
        return self.medium.read_mag(index)

    def mwb(self, index: int, bit: int) -> None:
        """Magnetic write bit."""
        self.medium.write_mag(index, bit)

    def ewb(self, index: int) -> None:
        """Electrical write bit: heat the dot (irreversible)."""
        self.medium.heat_dot(index)

    def erb(self, index: int, rounds: int = 1) -> str:
        """Electrical read bit via the five-step magnetic sequence.

        Returns ``"H"`` when the dot fails a verification (heated) and
        ``"U"`` otherwise.  ``rounds`` repeats the invert/verify pair;
        each extra round costs 4 more bit operations.
        """
        if rounds < 1:
            raise ValueError("erb needs at least one verification round")
        original = self.mrb(index)
        inverse = 1 - original
        for _ in range(rounds):
            self.mwb(index, inverse)
            if self.mrb(index) != inverse:
                return "H"
            self.mwb(index, original)
            if self.mrb(index) != original:
                return "H"
        return "U"

    def erb_span(self, start: int, end: int, rounds: int = 1) -> np.ndarray:
        """Vectorised erb over dots [start, end).

        Returns a bool array where True corresponds to the scalar
        :meth:`erb` verdict ``"H"``.  Protocol semantics (miss
        probability, counter increments, early exit on the first
        failed verification) match the scalar sequence exactly; only
        the RNG consumption order differs.
        """
        return self.medium.erb_span(start, end, rounds)

    def erb_at(self, indices: Sequence[int], rounds: int = 1) -> np.ndarray:
        """Vectorised erb at scattered (unique) dot ``indices``."""
        return self.medium.erb_at(indices, rounds)

    def erb_spans(self, starts: Sequence[int], width: int,
                  rounds: int = 1) -> np.ndarray:
        """Vectorised erb over ``[s, s + width)`` for each of
        ``starts``: a ``(len(starts), width)`` bool array."""
        return self.medium.erb_spans(starts, width, rounds)

    def bit_cost(self, rounds: int = 1) -> int:
        """Number of magnetic bit ops one erb consumes (5 for the
        paper's single-round sequence)."""
        return 1 + 4 * rounds
