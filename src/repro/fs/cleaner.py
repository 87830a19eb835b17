"""The segment cleaner (garbage collector) and its victim policies.

Section 4.1: "once a line has been heated it cannot be copied by the
garbage collector, since a heated line leaves no reusable space behind
... the garbage collector skips over heated segments, avoiding reading
and writing them repeatedly, thus saving on disk bandwidth."

Three policies are provided:

* ``greedy`` — classic lowest-utilisation victim; blind to heat, so as
  the device ages it keeps picking segments whose space is mostly
  heated and unreclaimable.
* ``cost-benefit`` — Rosenblum/Ousterhout benefit/cost with segment
  age; also heat-blind.
* ``sero`` — the paper's policy: heated segments are skipped entirely,
  and among the rest the cost-benefit score counts heated blocks as
  permanently live (they are never reclaimable).

Cleaning relocates whole files: every file owning a live block in the
victim is rewritten at the log head.  This both frees the victim and
re-clusters scattered files — the clustering behaviour Section 4.1
wants from the garbage collector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from ..errors import FileNotFoundError_, ReadError
from .segment import BlockState, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .lfs import SeroFS

POLICIES = ("greedy", "cost-benefit", "sero")


def _score_greedy(seg: Segment, _tick: int) -> float:
    """Greedy: prefer the lowest live fraction (max reclaim now)."""
    return -(seg.live / seg.size)


def _score_cost_benefit(seg: Segment, tick: int) -> float:
    """LFS benefit/cost = free_fraction * age / (1 + live_fraction)."""
    u = seg.live / seg.size
    age = max(tick - seg.mtime, 1)
    return (1.0 - u) * age / (1.0 + u)


def _score_sero(seg: Segment, tick: int) -> float:
    """SERO-aware cost-benefit: heated blocks are permanently
    unreclaimable, so they count as live in the cost and reduce the
    benefit; fully/heavily heated segments score ~0."""
    effective_live = (seg.live + seg.heated) / seg.size
    reclaimable = seg.dead / seg.size
    age = max(tick - seg.mtime, 1)
    return reclaimable * age / (1.0 + effective_live)


_SCORERS = {
    "greedy": _score_greedy,
    "cost-benefit": _score_cost_benefit,
    "sero": _score_sero,
}


def select_victim(fs: "SeroFS", policy: Optional[str] = None,
                  exclude: Optional[Set[int]] = None) -> Optional[Segment]:
    """Pick the best victim segment under ``policy``.

    Only segments with something to reclaim (dead blocks) qualify;
    under the ``sero`` policy segments containing heated blocks are
    skipped outright whenever any heat-free candidate exists.
    """
    policy = policy or fs.config.cleaner_policy
    scorer = _SCORERS[policy]
    exclude = exclude or set()
    candidates: List[Segment] = []
    for seg in fs.table.iter_segments():
        if seg.index in exclude or seg.index == fs._cursor_segment:
            continue
        if seg.dead == 0:
            continue
        candidates.append(seg)
    if not candidates:
        return None
    if policy == "sero":
        cool = [seg for seg in candidates if seg.heated == 0]
        if cool:
            candidates = cool
    return max(candidates, key=lambda seg: scorer(seg, fs.tick))


def clean_segment(fs: "SeroFS", victim: Segment) -> int:
    """Clean one segment: relocate its live files, reclaim its space.

    Returns the number of blocks reclaimed.  Heated blocks stay where
    they are (physically they cannot move), so a segment containing
    heated lines can never be fully reclaimed — the paper's core
    fragmentation argument.
    """
    live = fs.table.live_blocks_of_segment(victim)
    owners = sorted({info.ino for _pba, info in live})
    # headroom check: relocation rewrites whole files under the
    # no-overwrite discipline, so every owner's full block footprint
    # must fit in FREE space before any old copy can be retired;
    # cleaning without headroom would fail part-way, so skip instead
    # (another victim may still be cleanable)
    needed = 0
    for ino in owners:
        try:
            inode = fs._inode_of(ino)
        except (FileNotFoundError_, ReadError):
            continue
        if fs.is_ino_heated(ino):
            continue
        needed += inode.n_blocks + len(inode.indirect) + 1
    if needed > fs.table.free_blocks():
        return 0
    for ino in owners:
        _relocate_file(fs, ino)
    reclaimed = 0
    for pba in range(victim.start, victim.start + victim.size):
        if fs.table.state(pba) is BlockState.DEAD:
            fs.table.set_state(pba, BlockState.FREE)
            reclaimed += 1
    fs._stats["cleaner_runs"] += 1
    fs._stats["blocks_cleaned"] += reclaimed
    return reclaimed


def _relocate_file(fs: "SeroFS", ino: int) -> None:
    """Rewrite a whole file at the log head (cleaning/clustering)."""
    try:
        inode = fs._read_inode(ino)
    except (FileNotFoundError_, ReadError):
        return
    if fs.is_ino_heated(ino):
        return  # heated files are immovable
    data = fs._read_content(inode)
    fs._write_file_blocks(inode, data)


def run_cleaner(fs: "SeroFS", max_segments: int = 1,
                policy: Optional[str] = None) -> int:
    """Clean up to ``max_segments`` victims; returns blocks reclaimed."""
    total = 0
    tried: Set[int] = set()
    for _ in range(max_segments):
        victim = select_victim(fs, policy=policy, exclude=tried)
        if victim is None:
            break
        tried.add(victim.index)
        total += clean_segment(fs, victim)
    return total
