"""Bimodality metrics for the heated-segment distribution.

Section 4.1 argues that a good clustering policy "creates a bimodal
distribution of heated segments; that is we have only mostly heated
segments and mostly unheated segments", which (1) keeps read/write
performance up, (2) wastes no space, and (3) lets the cleaner skip
heated segments.  These metrics quantify how bimodal a file system's
segment population actually is, for the Section 4 paper check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from .lfs import SeroFS


@dataclass
class BimodalityReport:
    """Distribution statistics of per-segment heated fractions.

    Attributes:
        fractions: heated fraction of every non-reserved segment.
        mostly_heated: segments with >= ``hot_threshold`` heat.
        mostly_unheated: segments with <= ``cold_threshold`` heat.
        mixed: everything in between — the bad case.
        index: (mostly_heated + mostly_unheated) / all — 1.0 means
            perfectly bimodal, 0.0 means every segment is mixed.
    """

    fractions: List[float]
    mostly_heated: int
    mostly_unheated: int
    mixed: int

    @property
    def index(self) -> float:
        """Bimodality index in [0, 1]."""
        total = self.mostly_heated + self.mostly_unheated + self.mixed
        if total == 0:
            return 1.0
        return (self.mostly_heated + self.mostly_unheated) / total


def bimodality(fs: "SeroFS", hot_threshold: float = 0.8,
               cold_threshold: float = 0.2) -> BimodalityReport:
    """Measure how bimodal the segment heat distribution is."""
    fractions: List[float] = []
    hot = cold = mixed = 0
    for seg in fs.table.iter_segments():
        f = seg.heated_fraction
        fractions.append(f)
        if f >= hot_threshold:
            hot += 1
        elif f <= cold_threshold:
            cold += 1
        else:
            mixed += 1
    return BimodalityReport(fractions=fractions, mostly_heated=hot,
                            mostly_unheated=cold, mixed=mixed)


def cleaner_waste_fraction(fs: "SeroFS") -> float:
    """Fraction of non-reserved, non-free capacity locked in *mixed*
    segments — space the cleaner keeps visiting but can never fully
    reclaim.  A proxy for the bandwidth waste of poor clustering."""
    locked = 0
    used = 0
    for seg in fs.table.iter_segments():
        occupied = seg.live + seg.dead + seg.heated
        used += occupied
        if 0 < seg.heated < seg.size - seg.reserved:
            locked += occupied
    if used == 0:
        return 0.0
    return locked / used
