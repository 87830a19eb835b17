"""Segment table / block state machine tests."""

import pytest

from repro.errors import ConfigurationError
from repro.fs.segment import BlockInfo, BlockState, SegmentTable


@pytest.fixture
def table() -> SegmentTable:
    return SegmentTable(total_blocks=64, segment_blocks=8, reserved_prefix=8)


def test_initial_counts(table):
    counts = table.counts()
    assert counts["reserved"] == 8
    assert counts["free"] == 56
    assert counts["live"] == 0


def test_mark_live_requires_owner(table):
    with pytest.raises(ConfigurationError):
        table.set_state(10, BlockState.LIVE)


def test_live_dead_free_cycle(table):
    table.mark_live(10, ino=2, fbn=0)
    assert table.state(10) is BlockState.LIVE
    assert table.owner(10) == BlockInfo(ino=2, fbn=0, is_inode=False)
    table.mark_dead(10)
    assert table.state(10) is BlockState.DEAD
    assert table.owner(10) is None
    table.set_state(10, BlockState.FREE)
    assert table.state(10) is BlockState.FREE


def test_heated_is_terminal(table):
    table.mark_heated(12)
    with pytest.raises(ConfigurationError):
        table.set_state(12, BlockState.FREE)
    with pytest.raises(ConfigurationError):
        table.mark_live(12, ino=1)
    # re-asserting heated is allowed (idempotent)
    table.set_state(12, BlockState.HEATED)


def test_segment_aggregates(table):
    table.mark_live(8, ino=1)
    table.mark_live(9, ino=1)
    table.mark_dead(9)
    table.mark_heated(10)
    seg = table.segment_of(8)
    assert seg.live == 1
    assert seg.dead == 1
    assert seg.heated == 1
    assert seg.free == 5
    assert seg.utilization == pytest.approx(1 / 8)
    assert seg.heated_fraction == pytest.approx(1 / 8)
    assert seg.reclaimable == 6


def test_counts_stay_consistent(table):
    table.mark_live(20, ino=1)
    table.mark_dead(20)
    table.mark_live(20, ino=2)
    counts = table.counts()
    assert counts["live"] == 1
    assert counts["dead"] == 0


def test_empty_segments(table):
    assert len(table.empty_segments()) == 7
    table.mark_live(16, ino=1)
    assert len(table.empty_segments()) == 6


def test_find_free_extent_alignment(table):
    start = table.find_free_extent(8, alignment=8)
    assert start == 8  # first non-reserved aligned extent
    table.mark_live(9, ino=1)
    assert table.find_free_extent(8, alignment=8) == 16


def test_find_free_extent_none(table):
    for pba in range(8, 64):
        table.mark_live(pba, ino=1, fbn=pba)
    assert table.find_free_extent(4, alignment=4) is None


def test_live_blocks_of_segment(table):
    table.mark_live(8, ino=3, fbn=7)
    table.mark_live(11, ino=4, is_inode=True)
    live = table.live_blocks_of_segment(table.segments[1])
    assert [(pba, info.ino) for pba, info in live] == [(8, 3), (11, 4)]


def test_validation():
    with pytest.raises(ConfigurationError):
        SegmentTable(total_blocks=64, segment_blocks=7)
    with pytest.raises(ConfigurationError):
        SegmentTable(total_blocks=65, segment_blocks=8)
    with pytest.raises(ConfigurationError):
        SegmentTable(total_blocks=64, segment_blocks=8, reserved_prefix=3)


def test_iter_segments_skips_fully_reserved(table):
    indices = [seg.index for seg in table.iter_segments()]
    assert 0 not in indices
    assert len(indices) == 7


def test_pickle_round_trip_is_flat(table):
    """A store patch pickles the table on every rpc seal pass: owners
    and segments travel as plain tuples, and come back as the same
    records, states and aggregates."""
    import pickle

    table.mark_live(9, ino=2, fbn=0, is_inode=True)
    table.mark_live(10, ino=2, fbn=3)
    table.mark_live(11, ino=3, fbn=0)
    table.mark_dead(11)
    table.mark_heated(16)
    table.segment_of(10).mtime = 7
    blob = pickle.dumps(table, pickle.HIGHEST_PROTOCOL)
    assert b"BlockInfo" not in blob and b"Segment\x94" not in blob
    copy = pickle.loads(blob)
    assert copy._states == table._states
    assert all(state is BlockState(state.value) for state in copy._states)
    assert copy._owners == table._owners
    assert copy.owner(9) == BlockInfo(ino=2, fbn=0, is_inode=True)
    assert copy.segments == table.segments
    assert copy.counts() == table.counts()
    assert copy.free_blocks() == table.free_blocks()
    assert copy.dead_blocks() == table.dead_blocks()
    copy.mark_live(12, ino=4)
    assert table.state(12) is BlockState.FREE
