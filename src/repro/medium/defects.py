"""Fabrication defects and the bad-block map.

Patterned media have a switching-field distribution (Vallejo et al.
2007, cited by the paper): some dots need more field than the writer
can apply.  Section 3 notes that "bad block handling is a challenge,
because a heated block should not be misinterpreted as a bad block" —
so the defect scan below runs at *format time*, before any line can
have been heated, and its output (the bad-block map) is stored by the
device, never inferred later from read failures alone.

The scan has two implementations sharing the exact same medium I/O
sequence (per-block write/readback spans): a scalar *reference* that
classifies dots one at a time, and a vectorized path that records the
readbacks into whole-medium arrays and classifies everything with a
handful of numpy passes.  The numpy path is the default; the scalar
one runs only when the caller passes ``vectorized=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import numpy as np

from .medium import PatternedMedium


@dataclass
class DefectScanReport:
    """Result of a format-time write/readback surface scan.

    Attributes:
        bad_blocks: PBAs containing at least ``tolerance+1`` unwritable
            dots (the sector ECC can absorb up to ``tolerance``).
        fragile_blocks: PBAs with *any* unwritable dot inside the
            block's electrical region.  A stuck dot fails the erb
            verification exactly like a heated dot, and the electrical
            payload has no error correction (only a CRC), so these
            blocks must never serve as the hash block of a line.
        defective_dots: total unwritable dot count found.
        scanned_blocks: number of blocks scanned.
    """

    bad_blocks: Set[int]
    fragile_blocks: Set[int]
    defective_dots: int
    scanned_blocks: int

    @property
    def bad_fraction(self) -> float:
        """Fraction of scanned blocks marked bad."""
        if not self.scanned_blocks:
            return 0.0
        return len(self.bad_blocks) / self.scanned_blocks


def scan_for_defects(medium: PatternedMedium, tolerance: int = 4,
                     e_region_dots: int = 4096,
                     ecc_word_bits: int = 72,
                     vectorized: bool = True) -> DefectScanReport:
    """Write/readback scan of the whole medium.

    Writes a 10-pattern and then an 01-pattern to every block span and
    reads each back; dots that fail either polarity are defective.  A
    block is *bad* when it exceeds the ``tolerance`` of total defects
    **or** when any single ECC codeword (``ecc_word_bits`` consecutive
    dots) contains two defects — SECDED corrects only one error per
    word, so two stuck dots in one word make the block unreadable no
    matter how few defects it has in total.  A block with any
    defective dot among its first ``e_region_dots`` becomes *fragile*
    (unusable as a line head, see :class:`DefectScanReport`).

    The scan is destructive of data (it is a format-time operation) and
    restores an erased (all-zero) state afterwards.

    By default the classification runs as whole-medium numpy passes;
    ``vectorized=False`` runs the dot-at-a-time reference.  Both paths
    issue an identical per-block span I/O sequence, so their counters
    and reports agree exactly.
    """
    geometry = medium.geometry
    dpb = geometry.dots_per_block
    # The test patterns depend only on the (uniform) span length, so
    # they are built once, not once per block.
    pattern_a = np.arange(dpb, dtype=np.int8) % 2
    pattern_b = (1 - pattern_a).astype(np.int8)
    erased = np.zeros(dpb, dtype=np.int8)
    if not vectorized:
        return _scan_scalar(medium, tolerance, e_region_dots, ecc_word_bits,
                            pattern_a, pattern_b, erased)

    n_blocks = geometry.total_blocks
    mismatch = np.empty(n_blocks * dpb, dtype=bool)
    for pba in range(n_blocks):
        start, end = geometry.block_span(pba)
        medium.write_mag_span(start, pattern_a)
        read_a = medium.read_mag_span(start, end)
        medium.write_mag_span(start, pattern_b)
        read_b = medium.read_mag_span(start, end)
        mismatch[start:end] = (read_a != pattern_a) | (read_b != pattern_b)
        medium.write_mag_span(start, erased)

    counts = mismatch.astype(np.int64)
    block_bounds = np.arange(n_blocks, dtype=np.int64) * dpb
    failures = np.add.reduceat(counts, block_bounds)
    # Fragile: any defect among the first e_region_dots of its block.
    offsets = np.arange(counts.size, dtype=np.int64) % dpb
    in_e_region = counts * (offsets < e_region_dots)
    fragile_counts = np.add.reduceat(in_e_region, block_bounds)
    # Double defects inside one SECDED codeword.
    words_per_block = -(-dpb // ecc_word_bits)
    word_bounds = (block_bounds[:, None]
                   + np.arange(words_per_block, dtype=np.int64)
                   * ecc_word_bits).ravel()
    word_counts = np.add.reduceat(counts, word_bounds)
    double_word = (word_counts.reshape(n_blocks, words_per_block) >= 2
                   ).any(axis=1)
    bad_mask = (failures > tolerance) | double_word
    return DefectScanReport(
        bad_blocks=set(np.flatnonzero(bad_mask).tolist()),
        fragile_blocks=set(np.flatnonzero(fragile_counts > 0).tolist()),
        defective_dots=int(counts.sum()),
        scanned_blocks=n_blocks)


def _scan_scalar(medium: PatternedMedium, tolerance: int,
                 e_region_dots: int, ecc_word_bits: int,
                 pattern_a: np.ndarray, pattern_b: np.ndarray,
                 erased: np.ndarray) -> DefectScanReport:
    """Scalar reference scan: classify dot by dot, block by block."""
    geometry = medium.geometry
    bad: Set[int] = set()
    fragile: Set[int] = set()
    defective_total = 0
    for pba in range(geometry.total_blocks):
        start, end = geometry.block_span(pba)
        n = end - start
        failures = 0
        word_counts: dict = {}
        medium.write_mag_span(start, pattern_a)
        read_a = medium.read_mag_span(start, end)
        medium.write_mag_span(start, pattern_b)
        read_b = medium.read_mag_span(start, end)
        for i in range(n):
            # the two patterns are complementary, so a stuck-at dot
            # always matches one of them; failing *either* pass marks
            # the dot defective
            if read_a[i] != pattern_a[i] or read_b[i] != pattern_b[i]:
                failures += 1
                word = i // ecc_word_bits
                word_counts[word] = word_counts.get(word, 0) + 1
                if i < e_region_dots:
                    fragile.add(pba)
        defective_total += failures
        if failures > tolerance or any(c >= 2 for c in word_counts.values()):
            bad.add(pba)
        medium.write_mag_span(start, erased)
    return DefectScanReport(bad_blocks=bad, fragile_blocks=fragile,
                            defective_dots=defective_total,
                            scanned_blocks=geometry.total_blocks)


def defective_dots_in_block(medium: PatternedMedium, pba: int) -> List[int]:
    """Ground-truth list of unwritable (non-heated) dots in a block.

    One pass over the medium's snapshot arrays
    (:meth:`~repro.medium.medium.PatternedMedium.defect_map`) instead
    of per-index ``is_writable``/``is_heated`` calls.
    """
    start, end = medium.geometry.block_span(pba)
    return (start + np.flatnonzero(medium.defect_map(start, end))).tolist()
