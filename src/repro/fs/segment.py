"""Segments and per-block bookkeeping of the log-structured layout.

"LFS treats the space on the disk as a collection of contiguous
segments ... New data is written sequentially to the log" (Section
4.1).  The segment table tracks, per block, whether it is free, live
(and for which inode/file-offset), dead (overwritten), heated or
reserved, and aggregates per-segment counts for the cleaner's victim
selection and for the bimodality metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..units import is_power_of_two


class BlockState(enum.Enum):
    """Lifecycle state of one device block as the FS sees it."""

    FREE = "free"
    LIVE = "live"
    DEAD = "dead"          # overwritten; reclaimable by the cleaner
    HEATED = "heated"      # inside a heated line; immovable, never free
    RESERVED = "reserved"  # superblock / checkpoint region


#: Owner tag for blocks that belong to the FS itself rather than a file.
META_INO = 0

#: File-block-number tag for indirect pointer blocks.
INDIRECT_FBN = 0xFFFFFFFF


@dataclass
class BlockInfo:
    """Ownership record of one live block.

    Attributes:
        ino: owning inode number (META_INO for FS metadata).
        fbn: file block number within the file (INDIRECT_FBN for
            indirect pointer blocks; 0 for the inode block itself is
            disambiguated by ``is_inode``).
        is_inode: True when the block holds the inode itself.
    """

    ino: int
    fbn: int = 0
    is_inode: bool = False


@dataclass
class Segment:
    """Aggregated state of one segment.

    Attributes:
        index: segment number.
        start: first PBA of the segment.
        size: blocks per segment.
    """

    index: int
    start: int
    size: int
    live: int = 0
    dead: int = 0
    heated: int = 0
    reserved: int = 0
    mtime: int = 0  # FS tick of the last write into this segment

    @property
    def free(self) -> int:
        """Blocks never written (or fully reclaimed)."""
        return self.size - self.live - self.dead - self.heated - self.reserved

    @property
    def utilization(self) -> float:
        """Live fraction of the segment (the cleaner's u)."""
        return self.live / self.size

    @property
    def heated_fraction(self) -> float:
        """Heated fraction of the segment (the bimodality variable)."""
        return self.heated / self.size

    @property
    def reclaimable(self) -> int:
        """Blocks a clean of this segment would recover."""
        return self.dead + self.free


class SegmentTable:
    """Block states + segment aggregates over a device's block range.

    Args:
        total_blocks: device capacity in blocks.
        segment_blocks: segment size (power of two).
        reserved_prefix: leading blocks reserved for superblock and
            checkpoint (rounded up to whole segments by the caller).
    """

    def __init__(self, total_blocks: int, segment_blocks: int,
                 reserved_prefix: int = 0) -> None:
        if not is_power_of_two(segment_blocks):
            raise ConfigurationError("segment size must be a power of two")
        if total_blocks % segment_blocks:
            raise ConfigurationError(
                "device size must be a whole number of segments")
        if reserved_prefix % segment_blocks:
            raise ConfigurationError(
                "reserved prefix must be whole segments")
        self.total_blocks = total_blocks
        self.segment_blocks = segment_blocks
        self._states: List[BlockState] = [BlockState.FREE] * total_blocks
        self._owners: Dict[int, BlockInfo] = {}
        self.segments: List[Segment] = [
            Segment(index=i, start=i * segment_blocks, size=segment_blocks)
            for i in range(total_blocks // segment_blocks)
        ]
        for pba in range(reserved_prefix):
            self.set_state(pba, BlockState.RESERVED)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Owners and segments as flat tuples: a store patch pickles the
        table on every rpc seal pass, and hundreds of small dataclass
        instances each cost a reduce call there.  The block states stay
        a list of the (memoised) enum members."""
        state = dict(vars(self))
        state["_owners"] = [(pba, info.ino, info.fbn, info.is_inode)
                            for pba, info in self._owners.items()]
        state["segments"] = [
            (seg.index, seg.start, seg.size, seg.live, seg.dead,
             seg.heated, seg.reserved, seg.mtime) for seg in self.segments]
        return state

    def __setstate__(self, state: dict) -> None:
        state["_owners"] = {pba: BlockInfo(ino, fbn, is_inode)
                            for pba, ino, fbn, is_inode in state["_owners"]}
        state["segments"] = [Segment(*row) for row in state["segments"]]
        vars(self).update(state)

    # -- single block ------------------------------------------------------

    def state(self, pba: int) -> BlockState:
        """Current state of block ``pba``."""
        return self._states[pba]

    def owner(self, pba: int) -> Optional[BlockInfo]:
        """Ownership record of a live block (None otherwise)."""
        return self._owners.get(pba)

    def segment_of(self, pba: int) -> Segment:
        """The segment containing ``pba``."""
        return self.segments[pba // self.segment_blocks]

    def set_state(self, pba: int, new: BlockState,
                  owner: Optional[BlockInfo] = None) -> None:
        """Transition block ``pba`` to ``new`` with optional ownership.

        Guards the one-way nature of HEATED: a heated block can never
        return to any other state.
        """
        old = self._states[pba]
        if old is BlockState.HEATED and new is not BlockState.HEATED:
            raise ConfigurationError(
                f"block {pba} is heated; its state can never change")
        seg = self.segment_of(pba)
        for state, delta in ((old, -1), (new, +1)):
            if state is BlockState.LIVE:
                seg.live += delta
            elif state is BlockState.DEAD:
                seg.dead += delta
            elif state is BlockState.HEATED:
                seg.heated += delta
            elif state is BlockState.RESERVED:
                seg.reserved += delta
        self._states[pba] = new
        if new is BlockState.LIVE:
            if owner is None:
                raise ConfigurationError("live blocks need an owner")
            self._owners[pba] = owner
        else:
            self._owners.pop(pba, None)

    def mark_live(self, pba: int, ino: int, fbn: int = 0,
                  is_inode: bool = False) -> None:
        """Mark ``pba`` live and owned."""
        self.set_state(pba, BlockState.LIVE,
                       BlockInfo(ino=ino, fbn=fbn, is_inode=is_inode))

    def mark_dead(self, pba: int) -> None:
        """Mark a previously live block dead (overwritten)."""
        self.set_state(pba, BlockState.DEAD)

    def mark_heated(self, pba: int) -> None:
        """Mark a block heated (irreversible)."""
        self.set_state(pba, BlockState.HEATED)

    # -- queries -----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Totals per state over the whole device."""
        out = {state.value: 0 for state in BlockState}
        for state in self._states:
            out[state.value] += 1
        return out

    def free_blocks(self) -> int:
        """Total FREE blocks."""
        return sum(seg.free for seg in self.segments)

    def dead_blocks(self) -> int:
        """Total DEAD blocks (reclaimable by cleaning)."""
        return sum(seg.dead for seg in self.segments)

    def iter_segments(self, skip_reserved: bool = True) -> Iterator[Segment]:
        """Iterate segments, skipping fully reserved ones by default."""
        for seg in self.segments:
            if skip_reserved and seg.reserved == seg.size:
                continue
            yield seg

    def empty_segments(self) -> List[Segment]:
        """Segments with no live, dead, heated or reserved blocks."""
        return [seg for seg in self.iter_segments()
                if seg.free == seg.size]

    def find_free_extent(self, length: int, alignment: int) -> Optional[int]:
        """First PBA of a fully FREE, ``alignment``-aligned extent of
        ``length`` blocks, or None.  Used to place heated lines."""
        pba = 0
        while pba + length <= self.total_blocks:
            ok = True
            for offset in range(length):
                if self._states[pba + offset] is not BlockState.FREE:
                    ok = False
                    break
            if ok:
                return pba
            pba += alignment
        return None

    def live_blocks_of_segment(self, seg: Segment) -> List[Tuple[int, BlockInfo]]:
        """(pba, owner) pairs for every live block of ``seg``."""
        out = []
        for pba in range(seg.start, seg.start + seg.size):
            if self._states[pba] is BlockState.LIVE:
                out.append((pba, self._owners[pba]))
        return out
