"""Run-grain file I/O: ``SeroFS`` hands the device whole extents.

A get reads each ascending run of a file's data blocks with one
``read_block_run``; a put buffers the payloads of contiguously
allocated blocks and writes them with one ``write_block_run``; a seal
writes its line's data, indirect blocks, inode and padding as one run
each, in the order the per-block writes had.

Two oracles hold it to the block-at-a-time file I/O it replaced:

* a *block-wise twin* on the same engine, whose device moves every
  run as a loop of single-block ops.  That is the per-block path
  exactly, so on untampered data the twin must hold the same bytes,
  placement, segment table, counters and RNG position and pay the same
  seek and electrical charges.  Only the magnetic transfer charges may
  differ, and only downwards: a run is one transfer of
  ``ceil(sum(bits) / 64)`` cycles, never more than the blocks'
  separate ``ceil(bits / 64)``.
* the *scalar engine* (``DeviceConfig(span_engine=False)``), whose run
  ops go block by block too.  Its electrical read kernel draws the
  erb protocol's random rounds in another order, so after a heat its
  counters, RNG position and erb charge are its own; results, dots,
  placement, segment table and seek and ewb charges must still match.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.store import TamperEvidentStore
from repro.device.sector import BLOCK_SIZE
from repro.device.sero import DeviceConfig
from repro.errors import NoSpaceError
from repro.fs import cleaner
from repro.fs.fsck import fsck
from repro.fs.lfs import FSConfig
from repro.fs.segment import BlockState
from repro.medium.medium import MediumConfig

from test_fs_meta_cache import _outcome, _record_device_calls

OBJECT = random.Random(20080226).randbytes(24 * BLOCK_SIZE)


def _store(span_engine=True, total_blocks=256, **fs_config):
    # a defect-free medium needs no format scan
    return TamperEvidentStore.create(
        total_blocks=total_blocks, format_scan=False,
        medium_config=MediumConfig(seed=5),
        device_config=DeviceConfig(span_engine=span_engine),
        fs_config=FSConfig(**fs_config))


def _block_wise(store):
    """Make ``store``'s device move every run as single-block ops."""
    device = store.device

    def read_block_run(first, count):
        return [device.read_block(pba) for pba in range(first, first + count)]

    def write_block_run(first, payloads):
        for offset, payload in enumerate(payloads):
            device.write_block(first + offset, payload)

    device.read_block_run = read_block_run
    device.write_block_run = write_block_run
    return store


def _twins(**config):
    """A store and its block-wise twin."""
    return _store(**config), _block_wise(_store(**config))


def _assert_same_layout(store, oracle):
    """Dots, placement and sled motion: what any oracle must share."""
    ms, mo = store.device.medium, oracle.device.medium
    assert np.array_equal(ms._mag, mo._mag)
    assert np.array_equal(ms._sharpness, mo._sharpness)
    ts, to = store.fs.table, oracle.fs.table
    assert ts._states == to._states
    assert ts._owners == to._owners
    assert ts.segments == to.segments
    assert store.fs.imap == oracle.fs.imap
    assert store.fs._stats == oracle.fs._stats
    cs = store.device.account.by_category
    co = oracle.device.account.by_category
    for kind in ("seek", "ewb"):
        assert cs.get(kind) == co.get(kind), kind


def _assert_block_wise(store, twin):
    """Everything but the magnetic transfer charges is the block-wise
    twin's, and those are at most the twin's."""
    _assert_same_layout(store, twin)
    ms, mt = store.device.medium, twin.device.medium
    assert ms.counters == mt.counters
    assert ms._rng.bit_generator.state == mt._rng.bit_generator.state
    cs = store.device.account.by_category
    ct = twin.device.account.by_category
    assert cs.get("erb") == ct.get("erb")
    for kind in ("mrb", "mwb"):
        assert cs.get(kind, 0.0) <= ct.get(kind, 0.0), kind
    assert store.device.account.op_counts == twin.device.account.op_counts


def _data_pbas(store, path):
    inode = store.fs._lookup(path)[1]
    return store.fs._load_pointers(inode)[0]


# -- the grain -----------------------------------------------------------------


def test_put_get_and_seal_move_one_run_per_extent():
    store = _store()
    log = []
    _record_device_calls(store, log)

    store.put("/obj", OBJECT)
    data = _data_pbas(store, "/obj")
    assert data == list(range(data[0], data[0] + 24))  # contiguous
    assert [c for c in log if c[1] in data] == [("write_block_run", data[0])]

    del log[:]
    assert store.get("/obj") == OBJECT
    assert [c for c in log if c[0] == "read_block_run"] == \
        [("read_block_run", data[0])]
    assert not [c for c in log if c[0] == "read_block" and c[1] in data]

    del log[:]
    start = store.seal("/obj").line_start
    # 24 data blocks + inode + hash block: a 32-block line, padded by 6
    assert [c for c in log if c[0] != "read_block"] == [
        ("read_block_run", data[0]),
        ("write_block_run", start + 2),   # data
        ("write_block_run", start + 1),   # inode
        ("write_block_run", start + 26),  # padding
        ("heat_line", start),
    ]
    assert _data_pbas(store, "/obj") == list(range(start + 2, start + 26))

    del log[:]
    assert store.get("/obj") == OBJECT
    assert [c for c in log if c[0] == "read_block_run"] == \
        [("read_block_run", start + 2)]
    assert store.verify("/obj").intact


# -- the per-block path is the oracle ------------------------------------------


_PATHS = st.sampled_from(["/a", "/b", "/c", "/d/e"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _PATHS, st.integers(0, 30 * BLOCK_SIZE),
              st.integers(0, 2**16)),
    st.tuples(st.just("delete"), _PATHS),
    st.tuples(st.just("seal"), _PATHS),
    st.tuples(st.just("get"), _PATHS),
    st.tuples(st.just("clean"), st.integers(1, 4)),
), min_size=1, max_size=14)


def _apply(store, op):
    kind = op[0]
    if kind == "put":
        _kind, path, size, seed = op
        data = random.Random(seed).randbytes(size)
        return _outcome(lambda: store.put(path, data, overwrite=True,
                                          make_parents=True))
    if kind == "clean":
        return _outcome(lambda: cleaner.run_cleaner(store.fs, op[1]))
    return _outcome(getattr(store, kind), op[1])


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
def test_run_grain_matches_the_block_at_a_time_oracles(ops):
    """Put, overwrite, delete, seal, get and run_cleaner on a small
    device, untampered: step by step the same results on the run grain,
    its block-wise twin and the scalar engine; the same medium, table
    and charges but for the transfer rounding."""
    store, twin = _twins(total_blocks=128)
    scalar = _store(span_engine=False, total_blocks=128)
    for op in ops:
        outcome = _apply(store, op)
        assert _apply(twin, op) == outcome, op
        assert _apply(scalar, op) == outcome, op
    _assert_block_wise(store, twin)
    _assert_same_layout(store, scalar)
    assert fsck(store).clean


# -- the buffered run's edges --------------------------------------------------------


def test_put_that_starts_the_cleaner_mid_file(monkeypatch):
    """The cleaner runs with part of a file allocated: every LIVE block
    of that file already holds its frame when the cleaner starts."""
    twins = _twins(total_blocks=128)
    for store in twins:
        n = 0
        while store.fs.free_space_blocks() >= 15:
            store.put("/churn", bytes([n]) * (7 * BLOCK_SIZE),
                      overwrite=True)
            n += 1
    assert twins[0].fs.free_space_blocks() > 0  # the put starts on these
    data = bytes(range(256)) * (15 * BLOCK_SIZE // 256)

    seen = []
    real = cleaner.run_cleaner

    def checked(fs, *args, **kwargs):
        probe = copy.deepcopy(fs.device)  # read without moving the sled
        for pba, info in sorted(fs.table._owners.items()):
            if fs.table.state(pba) is BlockState.LIVE and \
                    info.ino == fs.next_ino - 1 and info.fbn >= 0:
                chunk = data[info.fbn * BLOCK_SIZE:(info.fbn + 1) * BLOCK_SIZE]
                assert probe.read_block(pba) == chunk, pba
                seen.append(pba)
        return real(fs, *args, **kwargs)

    monkeypatch.setattr(cleaner, "run_cleaner", checked)
    for store in twins:
        runs = store.fs._stats["cleaner_runs"]
        store.put("/new", data)
        assert store.fs._stats["cleaner_runs"] > runs
        assert store.get("/new") == data
        assert fsck(store).clean
    assert seen  # blocks were allocated before the cleaner ran
    _assert_block_wise(*twins)


def test_put_that_straddles_a_segment_boundary():
    twins = _twins(total_blocks=128)
    data = bytes(range(256)) * (20 * BLOCK_SIZE // 256)
    for store in twins:
        store.put("/small", b"x" * BLOCK_SIZE)
        store.put("/big", data)
        pbas = _data_pbas(store, "/big")
        segment_blocks = store.fs.config.segment_blocks
        assert len({pba // segment_blocks for pba in pbas}) == 2
        assert store.get("/big") == data
        assert fsck(store).clean
        store.seal("/big")
        assert store.get("/big") == data
        assert fsck(store).clean
    _assert_block_wise(*twins)


def test_put_that_allocates_around_a_heated_line():
    """Under the naive placement a sealed line sits inside the log's
    segment, so the next file's blocks skip it: two runs, each written
    where it was allocated."""
    twins = _twins(total_blocks=128, heat_placement="naive")
    data = bytes(range(256)) * (12 * BLOCK_SIZE // 256)
    for store in twins:
        store.put("/a", b"a" * BLOCK_SIZE)
        line = store.seal("/a").line_start
        store.put("/b", data)
        pbas = _data_pbas(store, "/b")
        gaps = [i for i in range(1, len(pbas)) if pbas[i] != pbas[i - 1] + 1]
        assert len(gaps) == 1 and pbas[gaps[0]] > line > pbas[gaps[0] - 1]
        assert store.get("/b") == data
        assert store.verify("/a").intact
        assert fsck(store).clean
    _assert_block_wise(*twins)


def test_put_that_runs_out_of_space_with_blocks_buffered():
    """The put allocates what is free, then finds nothing more: the
    buffered blocks are written (as the per-block loop wrote them) and
    rolled back to DEAD, and the old version stays whole."""
    twins = _twins(total_blocks=128, auto_clean=False)
    for store in twins:
        store.put("/keep", b"old")
        n = 0
        while store.fs.free_space_blocks() >= 12:
            store.put(f"/fill{n}", bytes([n]) * (7 * BLOCK_SIZE))
            n += 1
        free = store.fs.free_space_blocks()
        assert free > 1
        ino = store.fs._lookup("/keep")[0]
        old = set(_data_pbas(store, "/keep")) | {store.fs.imap[ino]}
        with pytest.raises(NoSpaceError):
            store.put("/keep", b"n" * ((free + 4) * BLOCK_SIZE),
                      overwrite=True)
        assert store.fs.free_space_blocks() == 0  # they were allocated
        table = store.fs.table
        assert {pba for pba, info in table._owners.items()
                if info.ino == ino
                and table.state(pba) is BlockState.LIVE} == old
        assert store.get("/keep") == b"old"
        assert fsck(store).clean
    _assert_block_wise(*twins)
