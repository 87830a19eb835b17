"""The epoch-stamped metadata cache of ``SeroFS``.

The cache fills two ways: a read of an inode or directory block keeps
what it read, and a write of one keeps what it wrote (write-through:
a block with no heated dot reads back exactly its payload), so a put
reads back nothing it just wrote.  Data blocks never enter, and any
write the file system did not make itself empties it.

The cache may only ever save device reads: every result, exception,
stored byte and random draw must be what a file system without it
produces.  So most tests here run the same operations on two
identically seeded stores — one left alone, one whose cache is emptied
before every operation (which is what a freshly built ``SeroFS`` over
the same device starts from) — and compare everything but the
operation counters and the simulated clock, which differ by design.
Reads are asserted as counts of dots, never as wall-clock time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.store import StoreStatePatch, TamperEvidentStore
from repro.device.sector import BLOCK_SIZE, encode_frame
from repro.device.sero import DOTS_PER_BLOCK, DeviceConfig
from repro.errors import ReproError
from repro.fs.cleaner import run_cleaner
from repro.medium.geometry import geometry_for_blocks
from repro.medium.medium import MediumConfig, PatternedMedium
from repro.parallel import RpcExecutor
from repro.parallel.session import invalidate, store_fingerprint
from repro.security import attacks

from twin_racks import fingerprints, object_rack

DEEP = "/a/b/c/d/e"
PAYLOAD = bytes(range(256)) * 8  # four blocks


def _store(total_blocks=256, seed=5, **config):
    # a defect-free medium needs no format scan
    return TamperEvidentStore.create(
        total_blocks=total_blocks, format_scan=False,
        medium_config=MediumConfig(seed=seed), **config)


def _deep_store():
    store = _store()
    store.put(f"{DEEP}/one", PAYLOAD, make_parents=True)
    store.put(f"{DEEP}/two", PAYLOAD[::-1])
    return store


def _mrb(store):
    return store.device.medium.counters["mrb"]


def _outcome(fn, *args):
    """What a caller can observe of one call: its value or its error."""
    try:
        return ("ok", fn(*args))
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _cold(store):
    store.fs._meta.clear()
    return store


def _same_medium(a, b):
    ma, mb = a.device.medium, b.device.medium
    assert np.array_equal(ma._mag, mb._mag)
    assert np.array_equal(ma._sharpness, mb._sharpness)
    assert ma._rng.bit_generator.state == mb._rng.bit_generator.state


# -- (i) counts, not clocks ---------------------------------------------------


def test_second_read_costs_only_the_data_blocks():
    store = _cold(_deep_store())
    before = _mrb(store)
    assert store.get(f"{DEEP}/one") == PAYLOAD
    cold = _mrb(store) - before
    # six directories (root + five), each an inode and a content block,
    # then the file's inode and its four data blocks
    assert cold == (2 * 6 + 1 + 4) * DOTS_PER_BLOCK

    before = _mrb(store)
    assert store.get(f"{DEEP}/one") == PAYLOAD
    assert _mrb(store) - before == 4 * DOTS_PER_BLOCK


def test_sibling_read_rereads_no_directory_or_ancestor():
    store = _cold(_deep_store())
    store.get(f"{DEEP}/one")
    before = _mrb(store)
    assert store.get(f"{DEEP}/two") == PAYLOAD[::-1]
    # the sibling's own inode and data; the path above it is cached
    assert _mrb(store) - before == (1 + 4) * DOTS_PER_BLOCK


def test_a_put_keeps_the_path_it_walked():
    store = _deep_store()
    before = _mrb(store)
    store.put(f"{DEEP}/three", b"x" * 100)
    # the walk finds the whole path cached (the put that made it kept
    # what it wrote), and the stat comes from the inode just written:
    # nothing is read back
    assert _mrb(store) - before == 0
    before = _mrb(store)
    assert store.get(f"{DEEP}/three") == b"x" * 100
    # the new inode and the parent's new blocks were kept as written:
    # only the file's one data block is read
    assert _mrb(store) - before == 1 * DOTS_PER_BLOCK


def test_a_write_over_a_heated_dot_is_not_kept():
    """A heated dot reads as noise, so a block that holds one does not
    read back as the payload written over it: the write drops it from
    the cache and its first read pays the device, as a cold one does."""
    store = _store()
    fs = store.fs
    pba = fs._try_alloc_block()  # where the log writes next
    start, _ = store.device.geometry.block_span(pba)
    store.device.medium.heat_dot(start + 100)
    store.put("/empty", b"")  # no data block: its inode lands at pba
    ino = fs.next_ino - 1
    assert fs.imap[ino] == pba
    assert pba not in fs._meta
    assert fs._meta  # the root's new blocks were kept
    before = _mrb(store)
    assert store.info("/empty").size == 0
    assert _mrb(store) - before == DOTS_PER_BLOCK


def test_data_blocks_are_never_cached():
    store = _deep_store()
    store.get(f"{DEEP}/one")
    inode = store.fs._lookup(f"{DEEP}/one")[1]
    assert not set(inode.direct) & set(store.fs._meta)
    assert len(store.fs._meta) <= store.device.total_blocks


# -- (ii) tamper through a warm cache ------------------------------------------


def _overwrite_cached_directory(store):
    """A raw magnetic write over the deepest directory's content block."""
    fs = store.fs
    pba = fs._lookup(DEEP)[1].direct[0]
    assert pba in fs._meta
    start, _ = store.device.geometry.block_span(pba)
    store.device.medium.write_mag_span(
        start, encode_frame(pba, b"\x00" * BLOCK_SIZE))


@pytest.mark.parametrize("attack", [
    lambda store: attacks.clear_directory(store.fs),
    lambda store: attacks.forced_rm(store.fs, f"{DEEP}/one"),
    _overwrite_cached_directory,
    lambda store: attacks.bulk_erase(store.device),
], ids=["clear_directory", "forced_rm", "write_mag_span", "bulk_erase"])
def test_tamper_reads_the_same_through_a_warm_cache(attack):
    warm, twin = _deep_store(), _deep_store()
    for store in (warm, twin):
        store.seal(f"{DEEP}/one")
        assert store.get(f"{DEEP}/one") == PAYLOAD
        assert store.get(f"{DEEP}/two") == PAYLOAD[::-1]
        attack(store)
    assert warm.fs._meta  # the attack met a warm cache
    _cold(twin)
    for path in (f"{DEEP}/one", f"{DEEP}/two"):
        for verb in ("get", "info", "verify"):
            assert _outcome(getattr(warm, verb), path) == \
                _outcome(getattr(_cold(twin), verb), path), (verb, path)
    _same_medium(warm, twin)


def test_tamper_is_seen_not_served_from_cache():
    store = _deep_store()
    receipt = store.seal(f"{DEEP}/one")
    assert store.verify(f"{DEEP}/one").intact
    assert store.get(f"{DEEP}/two") == PAYLOAD[::-1]
    _overwrite_cached_directory(store)
    assert _outcome(store.get, f"{DEEP}/two")[0] == "FileNotFoundError_"
    attacks.mwb_data(store.device, receipt.line_start)
    assert not store.verify_line(receipt.line_start).intact


# -- (iii) cleaner and adopt_state between two gets ------------------------------


def test_cleaner_pass_between_two_gets():
    warm, twin = _deep_store(), _deep_store()
    for store in (warm, twin):
        for i in range(6):
            store.put(f"{DEEP}/churn", bytes([i]) * 1500, overwrite=True)
        assert store.get(f"{DEEP}/one") == PAYLOAD
        _cold(twin)
        run_cleaner(store.fs, max_segments=4)
        _cold(twin)
    for path in (f"{DEEP}/one", f"{DEEP}/two", f"{DEEP}/churn"):
        assert _outcome(warm.get, path) == _outcome(_cold(twin).get, path)
    assert warm.fs.imap == twin.fs.imap
    _same_medium(warm, twin)


def test_process_seal_many_and_adopt_state_between_two_gets(workers):
    serial, paths = object_rack("serial")
    remote, _ = object_rack(RpcExecutor(workers))
    for fleet in (serial, remote):
        first = [fleet.get(path) for path in paths]
        fleet.seal_many(paths)
        assert [fleet.get(path) for path in paths] == first
        assert all(fleet.verify(path).intact for path in paths)
    assert fingerprints(serial) == fingerprints(remote)
    assert [m.fs._meta for m in serial.members] == \
        [m.fs._meta for m in remote.members]


def test_read_only_pass_brings_the_cache_it_filled_home(workers):
    """A deep audit on a worker walks the tree; the next client-side
    lookup must read what a serial twin's does, so the patch carries
    the cache the pass filled — and nothing on the steady pass."""
    serial, paths = object_rack("serial")
    remote, _ = object_rack(RpcExecutor(workers))
    for fleet in (serial, remote):
        fleet.seal_many(paths)
        for member in fleet.members:
            # the fingerprint does not see the cache, so the worker's
            # pinned copy must be dropped too for it to start as cold
            invalidate(_cold(member))
        fleet.audit(deep=True)
        fleet.audit(deep=True)
        assert [fleet.get(path) for path in paths] == \
            [path.encode() * 8 for path in paths]
    assert fingerprints(serial) == fingerprints(remote)

    member = remote.members[0]
    StoreStatePatch.capture(member)
    member.audit(deep=True)
    assert StoreStatePatch.capture(member).meta is None
    StoreStatePatch.capture(_cold(member))
    member.audit(deep=True)
    epoch, changed, dropped = StoreStatePatch.capture(member).meta
    assert changed and changed == member.fs._meta and not dropped
    assert epoch == member.fs._meta_epoch


def test_scalar_engine_audit_flushes_the_cache_every_time():
    """The scalar engine's electrical read inverts and restores dot by
    dot and so bumps the epoch: there every audit flushes the cache
    and the patch always carries the new stamp."""
    store = _store(device_config=DeviceConfig(span_engine=False))
    store.put(f"{DEEP}/one", PAYLOAD, make_parents=True)
    store.seal(f"{DEEP}/one")
    store.audit(deep=True)
    synced = (store.fs._meta_epoch, dict(store.fs._meta))
    StoreStatePatch.capture(store)
    store.audit(deep=True)
    epoch, changed, dropped = StoreStatePatch.capture(store).meta
    # the flush moved the stamp; the refill read back the same bytes,
    # and only what differs travels
    assert epoch == store.fs._meta_epoch != synced[0]
    assert store.fs._meta == synced[1] and not changed and not dropped


# -- (iv) twin traces ---------------------------------------------------------------


_NAMES = ("/d0/f0", "/d0/f1", "/d0/s/f2", "/f3")
_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_NAMES),
              st.integers(0, 6000)),
    st.tuples(st.just("get"), st.sampled_from(_NAMES)),
    st.tuples(st.just("info"), st.sampled_from(_NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(_NAMES)),
    st.tuples(st.just("mkdir"), st.sampled_from(("/d0", "/d0/s", "/d1"))),
    st.tuples(st.just("seal"), st.sampled_from(_NAMES)),
    st.tuples(st.just("verify"), st.sampled_from(_NAMES)),
    st.tuples(st.just("list"), st.sampled_from(("/", "/d0", "/d0/s"))),
    st.tuples(st.just("clean")),
    st.tuples(st.just("audit")),
    st.tuples(st.just("tamper"), st.integers(0, 95)),
)


def _apply(store, op):
    kind = op[0]
    if kind == "put":
        return store.put(op[1], bytes([op[2] % 251]) * op[2],
                         overwrite=True, make_parents=True)
    if kind == "mkdir":
        return store.fs.mkdir(op[1])
    if kind == "clean":
        return run_cleaner(store.fs, max_segments=2)
    if kind == "audit":
        report = store.audit(deep=True)
        return (report.reports, report.fs_errors, report.fs_warnings)
    if kind == "tamper":
        # a raw magnetic overwrite (a valid frame, so only its content
        # betrays it) of metadata, data, free space or a sealed line
        start, _ = store.device.geometry.block_span(op[1])
        return store.device.medium.write_mag_span(
            start, encode_frame(op[1], b"\xee" * BLOCK_SIZE))
    return getattr(store, kind)(op[1])


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=24))
def test_cached_and_uncached_twins_agree(trace):
    cached, twin = _store(96, seed=9), _store(96, seed=9)
    for op in trace:
        if op[0] == "tamper" and cached.fs._meta:
            # aim at a block the warm cache vouches for
            held = sorted(cached.fs._meta)
            op = ("tamper", held[op[1] % len(held)])
        assert _outcome(_apply, cached, op) == \
            _outcome(_apply, _cold(twin), op), op
    assert cached.fs.imap == twin.fs.imap
    assert cached.device.heated_lines == twin.device.heated_lines
    _same_medium(cached, twin)


def _record_device_calls(store, log):
    device = store.device
    for verb in ("read_block", "write_block", "heat_line", "verify_line",
                 "verify_lines", "read_block_run", "write_block_run"):
        def recorder(first, *rest, _verb=verb, _real=getattr(device, verb),
                     **kwargs):
            log.append((_verb, first))
            return _real(first, *rest, **kwargs)
        setattr(device, verb, recorder)


def test_cache_only_strikes_metadata_reads_from_the_device_trace():
    """The re-derived simulated cost is the old workload minus repeated
    inode/directory reads: op by op, the cached store's device calls
    are the uncached twin's with some ``read_block`` of a metadata
    block struck out — same verbs, same PBAs, same order."""
    cached, twin = _store(), _store()
    cached_log, twin_log = [], []
    _record_device_calls(cached, cached_log)
    _record_device_calls(twin, twin_log)
    trace = [("put", f"{DEEP}/one"), ("put", f"{DEEP}/two"),
             ("seal", f"{DEEP}/one"), ("get", f"{DEEP}/one"),
             ("verify", f"{DEEP}/one"), ("get", f"{DEEP}/two"),
             ("put", "/top"), ("seal", f"{DEEP}/two"), ("get", "/top"),
             ("verify", f"{DEEP}/two"), ("get", f"{DEEP}/one")]
    metadata = set()
    struck = 0
    for kind, path in trace:
        for store, log in ((cached, cached_log), (_cold(twin), twin_log)):
            del log[:]
            if kind == "put":
                store.put(path, PAYLOAD, make_parents=True)
            else:
                getattr(store, kind)(path)
        metadata |= set(cached.fs._meta) | set(twin.fs._meta)
        kept = iter(cached_log)
        pending = next(kept, None)
        for call in twin_log:
            if call == pending:
                pending = next(kept, None)
            else:
                assert call[0] == "read_block" and call[1] in metadata, \
                    (kind, path, call)
                struck += 1
        assert pending is None, (kind, path, pending)
    assert struck > 0
    assert cached.device.account.elapsed < twin.device.account.elapsed
    assert cached.device.account.by_category["mwb"] == \
        twin.device.account.by_category["mwb"]
    _same_medium(cached, twin)


# -- (v) the contract the cache and the session pins both rest on ------------------


def test_every_medium_mutator_bumps_the_epoch_and_no_read_does():
    medium = PatternedMedium(geometry_for_blocks(4, DOTS_PER_BLOCK),
                             MediumConfig(seed=1))
    mutators = [
        lambda: medium.write_mag(3, 1),
        lambda: medium.write_mag_span(10, [1, 0, 1]),
        lambda: medium.heat_dot(20),
        lambda: medium.heat_span(30, 34),
        lambda: medium.heat_span(40, 44, vectorized=False),
        lambda: medium.bulk_erase(),
    ]
    for mutate in mutators:
        before = medium.mutation_epoch
        mutate()
        assert medium.mutation_epoch > before
    before = medium.mutation_epoch
    medium.read_mag(3)
    medium.read_mag_span(0, 64)
    medium.erb_span(0, 64)
    medium.image_heated()
    assert medium.mutation_epoch == before
    with pytest.raises(AttributeError):
        medium.mutation_epoch = 0


def test_foreign_write_flushes_but_own_write_does_not():
    store = _deep_store()
    store.get(f"{DEEP}/one")
    fs = store.fs
    held = len(fs._meta)
    store.put("/own", b"mine")
    assert len(fs._meta) >= held - 2  # only the rewritten root went
    assert fs._meta_epoch == store.device.medium.mutation_epoch
    store.device.medium.write_mag_span(0, [0])
    assert fs._meta_epoch != store.device.medium.mutation_epoch
    store.get("/own")
    assert fs._meta_epoch == store.device.medium.mutation_epoch
    assert len(fs._meta) == 3  # root inode, root directory, the file's inode


@pytest.mark.parametrize("collateral", [False, True])
def test_a_seal_keeps_the_cache_unless_heat_can_spill(collateral):
    """The heat burns the line's hash block only — unless the medium
    models collateral heating, where a pulse reaches the dots of
    neighbouring blocks and nothing cached can be vouched for."""
    store = TamperEvidentStore.create(
        total_blocks=128,
        medium_config=MediumConfig(seed=3, collateral_heating=collateral))
    store.put("/a/b", PAYLOAD, make_parents=True)
    store.seal("/a/b")
    medium = store.device.medium
    assert (store.fs._meta_epoch == medium.mutation_epoch) is not collateral
    before = _mrb(store)
    assert store.get("/a/b") == PAYLOAD
    reads = (_mrb(store) - before) // DOTS_PER_BLOCK
    # kept: only the data are read (the seal kept the sealed copy's
    # new inode it wrote); flushed: the whole path again
    assert reads == (2 * 2 + 1 + 4 if collateral else 4)


def test_own_write_never_vouches_for_a_foreign_one():
    """A checkpoint writes without looking anything up first; its
    re-stamp must not bless a cache an attacker just undercut."""
    store = _deep_store()
    assert store.get(f"{DEEP}/two") == PAYLOAD[::-1]
    _overwrite_cached_directory(store)
    store.fs.checkpoint()
    assert _outcome(store.get, f"{DEEP}/two")[0] == "FileNotFoundError_"


def test_cache_is_not_part_of_the_store_fingerprint():
    store = _deep_store()
    before = store_fingerprint(store)
    _cold(store)
    assert store_fingerprint(store) == before


# -- (vi) decoded forms ------------------------------------------------------------
#
# Beside each cached payload the file system keeps its decoded form (an
# Inode, a directory's entries), served only while the cache holds the
# very payload object(s) it was decoded from.  Like the raw cache, they
# may only save work: a twin that drops them before every call, its
# raw cache kept, must see the same results, errors, stored bytes,
# draws and counters.


def _drop_decoded(store):
    store.fs._drop_decoded()
    return store


def _result(fn, *args):
    """Value or error, of any type: a tampered directory may fail to
    decode in more ways than the library's own errors."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc).__name__, str(exc))


_FS_PATHS = _NAMES + ("/", "/d0", "/d0/s", "/d1", "/nowhere/f")
_DECODED_OPS = st.one_of(
    _OPS,
    st.tuples(st.sampled_from(("stat", "read", "listdir", "verify_file",
                               "lookup", "lookup_ino")),
              st.sampled_from(_FS_PATHS)),
    st.tuples(st.just("heat"), st.sampled_from(_NAMES)),
    st.tuples(st.just("patch")),
)


def _apply_decoded(store, op):
    import pickle

    kind = op[0]
    fs = store.fs
    if kind == "lookup":
        return fs._lookup(op[1])
    if kind == "lookup_ino":
        return fs._lookup_ino(op[1])
    if kind in ("stat", "read", "listdir", "verify_file"):
        return getattr(fs, kind)(op[1])
    if kind == "heat":
        return fs.heat_file(op[1])
    if kind == "patch":
        # adopt its own cut as a worker's reply is adopted: every
        # changed cache entry comes back as a new, equal payload object
        # (apply_meta), every other graph object by value
        patch = StoreStatePatch.cut(store)
        return pickle.loads(pickle.dumps(patch)).apply(store)
    return _apply(store, op)


@settings(max_examples=150, deadline=None)
@given(st.lists(_DECODED_OPS, min_size=1, max_size=24))
def test_decoded_forms_change_nothing_a_twin_without_them_sees(trace):
    warm, twin = _store(96, seed=9), _store(96, seed=9)
    for op in trace:
        if op[0] == "tamper" and warm.fs._meta:
            held = sorted(warm.fs._meta)
            op = ("tamper", held[op[1] % len(held)])
        assert _result(_apply_decoded, warm, op) == \
            _result(_apply_decoded, _drop_decoded(twin), op), op
        assert warm.fs._meta == twin.fs._meta, op
    assert warm.fs.imap == twin.fs.imap
    assert warm.device.medium.counters == twin.device.medium.counters
    _same_medium(warm, twin)


def test_a_second_walk_decodes_nothing(monkeypatch):
    import repro.fs.lfs as lfs

    store = _deep_store()
    decoded = []
    entries, inode = lfs.unpack_entries, lfs.Inode.unpack
    monkeypatch.setattr(lfs, "unpack_entries", lambda payload: (
        decoded.append("directory"), entries(payload))[1])
    monkeypatch.setattr(lfs.Inode, "unpack", staticmethod(lambda payload: (
        decoded.append("inode"), inode(payload))[1]))
    _cold(store)
    assert store.get(f"{DEEP}/one") == PAYLOAD
    assert decoded.count("inode") == 7 and decoded.count("directory") == 6
    del decoded[:]
    assert store.get(f"{DEEP}/one") == PAYLOAD
    assert store.info(f"{DEEP}/two").size == len(PAYLOAD)
    assert store.list(DEEP) == ["one", "two"]
    assert decoded == ["inode"]  # /two's inode, first met here
    # a payload the cache drops takes its decoded form with it
    store.device.medium.write_mag_span(0, [0])
    del decoded[:]
    assert store.get(f"{DEEP}/one") == PAYLOAD
    assert decoded.count("inode") == 7


def test_what_a_caller_is_handed_is_its_own():
    """Writers mutate the inodes and entries a lookup hands back, so
    nothing handed out may be the shared decoded form."""
    store = _deep_store()
    fs = store.fs
    one = f"{DEEP}/one"
    before = (fs.stat(one), fs.read(one), fs.listdir(DEEP),
              fs._lookup(one), fs._lookup(DEEP))
    assert fs._inodes and fs._dirs  # warm
    ino, inode = fs._lookup(one)
    handed = [inode, fs._read_inode(ino), fs._lookup_parent(one)[0],
              fs._lookup(DEEP)[1]]
    for twin in handed:
        twin.size += 1
        twin.link_count = 9
        twin.ftype = type(twin.ftype)(3 - twin.ftype)
        twin.direct.append(7)
        twin.direct[0] = 5
        twin.indirect.append(3)
    entries = fs._dir_entries(fs._lookup(DEEP)[1])
    entries["forged"] = entries.pop("two")
    entries.clear()
    assert (fs.stat(one), fs.read(one), fs.listdir(DEEP),
            fs._lookup(one), fs._lookup(DEEP)) == before


def test_decoded_forms_never_travel():
    """A pickled file system, a pin and a patch are the same bytes
    whether the decoded forms are warm or cold."""
    import pickle

    warm, cold = _deep_store(), _deep_store()
    for store in (warm, cold):
        store.seal(f"{DEEP}/one")
        assert store.get(f"{DEEP}/two") == PAYLOAD[::-1]
        store.info(f"{DEEP}/one")
    assert warm.fs._inodes and warm.fs._dirs
    _drop_decoded(cold)
    assert pickle.dumps(warm.fs, 5) == pickle.dumps(cold.fs, 5)
    assert pickle.dumps(warm, 5) == pickle.dumps(cold, 5)  # a pin
    assert pickle.dumps(StoreStatePatch.cut(warm), 5) == \
        pickle.dumps(StoreStatePatch.cut(cold), 5)
    assert warm.fs._inodes  # a cut keeps them where they are
    assert not pickle.loads(pickle.dumps(warm)).fs._inodes
