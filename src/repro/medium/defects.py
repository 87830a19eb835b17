"""Fabrication defects and the bad-block map.

Patterned media have a switching-field distribution (Vallejo et al.
2007, cited by the paper): some dots need more field than the writer
can apply.  Section 3 notes that "bad block handling is a challenge,
because a heated block should not be misinterpreted as a bad block" —
so the defect scan below runs at *format time*, before any line can
have been heated, and its output (the bad-block map) is stored by the
device, never inferred later from read failures alone.

The scan has two implementations that apply the same dot operations in
the same per-dot order, so their reports, ``medium.counters`` totals,
final medium state and RNG position agree exactly; their span *call*
counts (and so ``mutation_epoch``) differ.  The scalar *reference*
writes and reads one block per span call and classifies dots one at a
time.  The vectorized path writes and reads a chunk of consecutive
blocks per span call (blocks are contiguous in dot space), records one
mismatch bool per dot in a ``(blocks, dots_per_block)`` array and
classifies every block with axis reductions over views of it — the
only whole-medium temporary is that 1 B/dot mask; everything else is
chunk-sized.  The numpy path is the default; the scalar one runs only
when the caller passes ``vectorized=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import numpy as np

from .medium import PatternedMedium

#: Size of one chunk of the vectorized scan, in bytes of a 1 B/dot
#: span array: a chunk is ``_CHUNK_BYTES // dots_per_block`` whole
#: blocks (at least one).  The scan holds a few such arrays per chunk
#: (the tiled patterns, the readbacks and the span calls' masks), so
#: this bounds its memory beside the whole-medium mismatch mask, and
#: small chunks stay in cache.
_CHUNK_BYTES = 1 << 17


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

    By default the scan writes and reads chunks of consecutive blocks,
    one span call per pattern per chunk, and classifies with per-block
    numpy reductions; ``vectorized=False`` runs the block-at-a-time,
    dot-at-a-time reference.  Both paths apply the same dot operations,
    so their reports, counter totals, final medium state and RNG
    position agree exactly.  A chunk that holds a heated dot is scanned
    block by block, because a heated dot's reads draw noise and the
    draws must come in the reference's per-block order.  The medium's
    ``mutation_epoch`` advances once per span write: three times per
    chunk here (per block in a chunk with a heated dot), three times
    per block in the reference.
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
    # One bool per dot, seen as one row per block: every per-block sum
    # below is an axis reduction over this view, never a wider copy.
    mismatch = np.empty((n_blocks, dpb), dtype=bool)
    chunk = max(1, _CHUNK_BYTES // dpb)
    # The patterns tiled over a whole chunk; a shorter last chunk
    # uses a prefix, which is still whole blocks of each pattern.
    tiled_a = np.tile(pattern_a, chunk)
    tiled_b = np.tile(pattern_b, chunk)
    tiled_erased = np.zeros(chunk * dpb, dtype=np.int8)
    for lo in range(0, n_blocks, chunk):
        hi = min(lo + chunk, n_blocks)
        start = geometry.block_span(lo)[0]
        end = geometry.block_span(hi - 1)[1]
        if np.count_nonzero(medium._mag[start:end]) < end - start:
            # a heated dot (mag == 0): keep the per-block noise draws
            for pba in range(lo, hi):
                _probe_span(medium, geometry.block_span(pba)[0], pattern_a,
                            pattern_b, erased, mismatch[pba])
        else:
            width = end - start
            _probe_span(medium, start, tiled_a[:width], tiled_b[:width],
                        tiled_erased[:width], mismatch[lo:hi].reshape(-1))

    if not mismatch.any():
        # a defect-free medium (the default): nothing to classify
        return DefectScanReport(bad_blocks=set(), fragile_blocks=set(),
                                defective_dots=0, scanned_blocks=n_blocks)
    failures = mismatch.sum(axis=1)
    # Fragile: any defect among the first e_region_dots of its block.
    fragile = mismatch[:, :max(e_region_dots, 0)].any(axis=1)
    # Double defects inside one SECDED codeword.  The whole words are a
    # (blocks, words, bits) view; a short last word counts as if padded
    # with defect-free dots.
    whole = dpb // ecc_word_bits * ecc_word_bits
    words = mismatch[:, :whole].reshape(n_blocks, -1, ecc_word_bits)
    double_word = (words.sum(axis=2) >= 2).any(axis=1)
    if whole < dpb:
        double_word |= mismatch[:, whole:].sum(axis=1) >= 2
    bad_mask = (failures > tolerance) | double_word
    return DefectScanReport(
        bad_blocks=set(np.flatnonzero(bad_mask).tolist()),
        fragile_blocks=set(np.flatnonzero(fragile).tolist()),
        defective_dots=int(failures.sum()),
        scanned_blocks=n_blocks)


def _probe_span(medium: PatternedMedium, start: int, pattern_a: np.ndarray,
                pattern_b: np.ndarray, erased: np.ndarray,
                out: np.ndarray) -> None:
    """Write/readback both patterns over one span from ``start`` and
    erase it; ``out`` gets True where either readback mismatched."""
    end = start + len(pattern_a)
    # reads are uint8: compare with uint8 views of the 0/1 patterns, so
    # numpy does not widen both sides to int16
    medium.write_mag_span(start, pattern_a)
    np.not_equal(medium.read_mag_span(start, end), pattern_a.view(np.uint8),
                 out=out)
    medium.write_mag_span(start, pattern_b)
    out |= medium.read_mag_span(start, end) != pattern_b.view(np.uint8)
    medium.write_mag_span(start, erased)


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
