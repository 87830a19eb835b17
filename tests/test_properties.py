"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashutil import line_hash
from repro.crypto.manchester import decode_bytes, decode_pattern, encode_bytes
from repro.crypto.sha256 import SHA256
from repro.crypto.wom import decode_bits as wom_decode
from repro.crypto.wom import encode_bits as wom_encode
from repro.device import ecc
from repro.device.sector import BLOCK_SIZE, decode_frame, encode_frame
from repro.fs.directory import pack_entries, unpack_entries
from repro.fs.inode import FileType, Inode, N_DIRECT
from repro.fs.layout import Checkpoint

import hashlib


@given(st.binary(max_size=512))
def test_sha256_always_matches_hashlib(data):
    assert SHA256(data).digest() == hashlib.sha256(data).digest()


@given(st.binary(max_size=300), st.binary(max_size=300))
def test_sha256_incremental_equivalence(a, b):
    h = SHA256(a)
    h.update(b)
    assert h.digest() == SHA256(a + b).digest()


@given(st.binary(max_size=256))
def test_manchester_roundtrip(data):
    assert decode_bytes(encode_bytes(data)) == data


@given(st.binary(min_size=1, max_size=64), st.data())
def test_manchester_any_extra_heat_is_detected_or_meaningless(data, draw):
    # heating any currently unheated dot either creates HH (tamper) or
    # turns an unused cell into a valid-looking cell — but within a
    # fully written pattern there are no unused cells, so evidence is
    # guaranteed
    pattern = encode_bytes(data)
    index = draw.draw(st.integers(0, len(pattern) - 1))
    if pattern[index]:
        return  # already heated: nothing to change (write-once)
    pattern[index] = True
    assert decode_pattern(pattern).is_tampered


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64)
       .filter(lambda bits: len(bits) % 2 == 0))
def test_wom_roundtrip(bits):
    assert wom_decode(wom_encode(bits)) == bits


@given(st.binary(min_size=64, max_size=64), st.integers(0, 71))
def test_ecc_corrects_any_single_flip(data, position):
    encoded = ecc.encode(data)
    corrupted = encoded.copy()
    corrupted[position] ^= 1
    assert ecc.decode(corrupted).data == data


@given(st.integers(0, 2**40), st.binary(max_size=BLOCK_SIZE))
def test_sector_frame_roundtrip(pba, payload):
    payload = payload + b"\x00" * (BLOCK_SIZE - len(payload))
    frame = decode_frame(encode_frame(pba, payload), expected_pba=pba)
    assert frame.payload == payload
    assert frame.pba == pba


@given(st.lists(st.binary(min_size=512, max_size=512), min_size=1, max_size=4),
       st.lists(st.integers(0, 2**30), min_size=1, max_size=4))
def test_line_hash_injective_under_address_permutation(blocks, addresses):
    if len(blocks) != len(addresses) or len(set(addresses)) != len(addresses):
        return
    h1 = line_hash(addresses, blocks)
    rotated = addresses[1:] + addresses[:1]
    if rotated != addresses:
        assert line_hash(rotated, blocks) != h1


@given(st.integers(1, 2**40), st.integers(0, 2**40), st.integers(0, 65535),
       st.text(max_size=20),
       st.lists(st.integers(0, 2**40), max_size=N_DIRECT))
def test_inode_roundtrip(ino, size, links, name, direct):
    inode = Inode(ino=ino, ftype=FileType.REGULAR,
                  link_count=links, size=size,
                  name_hint=name, direct=direct)
    out = Inode.unpack(inode.pack())
    assert out.ino == ino
    assert out.size == size
    assert out.link_count == links
    assert out.direct == direct


@given(st.dictionaries(
    st.text(alphabet=st.characters(blacklist_characters="/\x00",
                                   blacklist_categories=("Cs",)),
            min_size=1, max_size=30),
    st.tuples(st.sampled_from([FileType.REGULAR, FileType.DIRECTORY]),
              st.integers(1, 2**40)),
    max_size=10))
def test_directory_roundtrip(entries):
    assert unpack_entries(pack_entries(entries)) == entries


@given(st.integers(1, 2**30), st.integers(1, 2**30), st.integers(0, 2**30),
       st.dictionaries(st.integers(1, 2**30), st.integers(0, 2**30),
                       max_size=20))
def test_checkpoint_roundtrip(gen, ino, tick, imap):
    cp = Checkpoint(generation=gen, next_ino=ino, tick=tick, imap=imap)
    out = Checkpoint.unpack(cp.pack())
    assert out.imap == imap


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=3000))
def test_venti_stream_roundtrip_property(data):
    from repro.device.sero import SERODevice
    from repro.integrity.venti import VentiStore

    store = VentiStore(SERODevice.create(256), arena_start=16,
                       arena_blocks=230)
    assert store.read_stream(store.put_stream(data)) == data


# ---------------------------------------------------------------------------
# Compact medium snapshot transport (the fleet's process/rpc pickle)


def _scrambled_medium(seed, heated_frac, touched_frac, uniform, sigma,
                      rng_draws):
    """A small medium driven into an arbitrary-but-physical state.

    Randomised mag bits, an arbitrary touched-dot bitmap, and (unless
    ``uniform``) non-uniform sharpness values — the exact surface the
    compact ``__getstate__`` snapshot has to reproduce.  The one
    physical invariant is honoured: a dot heated below the sharpness
    threshold holds no magnetisation (``mag == 0``), which is what
    makes the packed-sign-bit encoding lossless.
    """
    from repro.device.sero import SERODevice
    from repro.medium.dot import HEATED_SHARPNESS_THRESHOLD
    from repro.medium.medium import MediumConfig

    device = SERODevice.create(
        2, medium_config=MediumConfig(seed=seed, switching_sigma=sigma))
    medium = device.medium
    n = medium.geometry.total_dots
    rng = np.random.default_rng(seed ^ 0x5EED)
    medium._mag[:] = np.where(rng.integers(0, 2, size=n) > 0, 1,
                              -1).astype(np.int8)
    touched = rng.random(n) < touched_frac
    heated = touched & (rng.random(n) < heated_frac)
    sharpness = np.ones(n, dtype=np.float32)
    if uniform:
        sharpness[touched] = np.float32(0.25)
        heated = touched  # one repeated sub-threshold value
    else:
        # non-uniform: heated dots well below the threshold, merely
        # annealed dots above it but visibly below 1.0
        sharpness[touched] = rng.uniform(
            0.51, 0.95, size=int(touched.sum())).astype(np.float32)
        sharpness[heated] = rng.uniform(
            0.001, 0.2, size=int(heated.sum())).astype(np.float32)
    medium._sharpness[:] = sharpness
    medium._mag[medium._sharpness < HEATED_SHARPNESS_THRESHOLD] = 0
    medium.counters.update(
        {"mrb": int(rng.integers(0, 1000)),
         "mwb": int(rng.integers(0, 1000)),
         "heat": int(rng.integers(0, 1000))})
    for _ in range(rng_draws):  # advance the live RNG off its seed
        medium._rng.integers(0, 2)
    return medium


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       heated_frac=st.floats(0.0, 1.0),
       touched_frac=st.floats(0.0, 1.0),
       uniform=st.booleans(),
       sigma=st.sampled_from([0.0, 0.02, 0.1]),
       rng_draws=st.integers(0, 40))
def test_medium_snapshot_roundtrip_exact(seed, heated_frac, touched_frac,
                                         uniform, sigma, rng_draws):
    """The compact pickled snapshot must reproduce the medium *exactly*
    under arbitrary mag bits, touched bitmaps and non-uniform
    sharpness — every array byte, the counters, and the RNG state."""
    import pickle

    medium = _scrambled_medium(seed, heated_frac, touched_frac, uniform,
                               sigma, rng_draws)
    clone = pickle.loads(pickle.dumps(medium, pickle.HIGHEST_PROTOCOL))
    assert np.array_equal(clone._mag, medium._mag)
    assert clone._mag.dtype == medium._mag.dtype
    assert np.array_equal(clone._sharpness, medium._sharpness)
    assert clone._sharpness.dtype == medium._sharpness.dtype
    assert clone.counters == medium.counters
    assert clone._rng.bit_generator.state == \
        medium._rng.bit_generator.state
    if sigma > 0.0:  # the k-scale regenerates bit-exactly from config
        assert np.array_equal(clone._k_scale, medium._k_scale)
    else:
        assert clone._k_scale is None and medium._k_scale is None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       heated_frac=st.floats(0.05, 1.0),
       rng_draws=st.integers(0, 25))
def test_medium_snapshot_rng_continuation(seed, heated_frac, rng_draws):
    """A restored medium continues the exact random sequence: the read
    noise of heated dots (the RNG consumer) matches draw for draw."""
    import pickle

    medium = _scrambled_medium(seed, heated_frac, 0.6, False, 0.0,
                               rng_draws)
    clone = pickle.loads(pickle.dumps(medium, pickle.HIGHEST_PROTOCOL))
    n = medium.geometry.total_dots
    for start, end in ((0, n // 2), (n // 2, n)):
        assert np.array_equal(medium.read_mag_span(start, end),
                              clone.read_mag_span(start, end))
    assert medium.counters == clone.counters
    assert medium._rng.bit_generator.state == \
        clone._rng.bit_generator.state


def _erb_reference(medium, idx, rounds):
    """The erb kernel as first written: each dot's first failed
    verification found with ``any`` and ``argmax`` along its reads."""
    heated = medium._mag[idx] == 0
    n = heated.size
    writable = ~heated
    if medium._k_scale is not None:
        writable &= medium._k_scale[idx] <= medium.config.write_field
    n_verifies = 2 * rounds
    fail_at = np.full(n, n_verifies, dtype=np.int64)
    fail_at[~heated & ~writable] = 0
    n_heated = int(heated.sum())
    if n_heated:
        fails = medium._rng.integers(
            0, 2, size=(n_heated, n_verifies), dtype=np.uint8) == 0
        fail_at[heated] = np.where(fails.any(axis=1), fails.argmax(axis=1),
                                   n_verifies)
    verifies = int(np.minimum(fail_at + 1, n_verifies).sum())
    medium.counters["mrb"] += n + verifies
    medium.counters["mwb"] += verifies
    return fail_at < n_verifies


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       heated_frac=st.floats(0.0, 1.0),
       sigma=st.sampled_from([0.0, 0.1, 0.4]),
       rounds=st.integers(1, 6),
       picks=st.integers(0, 3000),
       rng_draws=st.integers(0, 10))
def test_erb_kernel_matches_reference_formula(seed, heated_frac, sigma,
                                             rounds, picks, rng_draws):
    """Verdicts, counters and the RNG state after ``_erb_many`` equal
    the original formula's, on the packed-byte table path
    (``2*rounds <= 8``) and on the ``any``/``argmax`` fallback, for
    scattered indices and for a span."""
    import pickle

    medium = _scrambled_medium(seed, heated_frac, 0.7, False, sigma,
                               rng_draws)
    twin = pickle.loads(pickle.dumps(medium, pickle.HIGHEST_PROTOCOL))
    n = medium.geometry.total_dots
    pick_rng = np.random.default_rng(seed)
    idx = np.sort(pick_rng.choice(n, size=min(picks, n), replace=False))
    span = slice(picks // 2, picks // 2 + n // 3)
    for where in (idx, span):
        got = medium._erb_many(where, rounds)
        want = _erb_reference(twin, where, rounds)
        assert np.array_equal(got, want)
        assert medium.counters == twin.counters
        assert medium._rng.bit_generator.state == \
            twin._rng.bit_generator.state


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       heated_frac=st.floats(0.0, 1.0),
       sigma=st.sampled_from([0.0, 0.1]),
       width=st.integers(0, 300),
       n_spans=st.integers(0, 6))
def test_erb_spans_is_erb_at_over_the_joined_spans(seed, heated_frac, sigma,
                                                   width, n_spans):
    """Gathering spans as slices draws and counts exactly as the flat
    per-dot index over the same dots, in the same order."""
    import pickle

    medium = _scrambled_medium(seed, heated_frac, 0.7, False, sigma, 0)
    twin = pickle.loads(pickle.dumps(medium, pickle.HIGHEST_PROTOCOL))
    n = medium.geometry.total_dots
    starts = np.random.default_rng(seed).choice(
        (n - width) // max(width, 1), size=n_spans,
        replace=False) * max(width, 1)
    got = medium.erb_spans(starts, width, rounds=2)
    flat = (starts[:, None] + np.arange(width)).ravel()
    want = twin.erb_at(flat, rounds=2).reshape(n_spans, width)
    assert got.shape == (n_spans, width)
    assert np.array_equal(got, want)
    assert medium.counters == twin.counters
    assert medium._rng.bit_generator.state == twin._rng.bit_generator.state


def test_device_snapshot_decode_allocates_at_most_three_bytes_per_dot():
    """Unpickling decodes the sign bits in place on int8: besides the
    medium's own ``_mag`` and ``_sharpness`` it holds only the touched
    bitmap (1 B/dot) and the packed payload.  An int64 ±1 temporary
    alone would be 8 B/dot."""
    import pickle
    import tracemalloc

    from repro.device.sero import SERODevice

    device = SERODevice.create(128)
    for start in (0, 8, 16):
        for pba in range(start + 1, start + 8):
            device.write_block(pba, bytes([pba]) * 512)
        device.heat_line(start, 8, timestamp=start)
    blob = pickle.dumps(device, pickle.HIGHEST_PROTOCOL)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        clone = pickle.loads(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    medium = clone.medium
    resident = medium._mag.nbytes + medium._sharpness.nbytes
    assert (peak - held - resident) / medium.geometry.total_dots <= 3.0
    assert clone.heated_lines == device.heated_lines


def test_a_sealed_member_pickles_to_at_most_150_kb():
    """The medium travels as one deflated :class:`MediumDelta` over
    every block, so a cold pin of a sealed 1024-block member is about
    90 kB, not the 1.3 MB of its undeflated bitmaps."""
    import pickle

    from repro import TamperEvidentStore

    store = TamperEvidentStore.create(total_blocks=1024)
    paths = [f"/obj{i:02d}" for i in range(30)]
    for path in paths:
        store.put(path, path.encode() * 200)
    for path in paths[:15]:
        store.seal(path)
    assert len(pickle.dumps(store, pickle.HIGHEST_PROTOCOL)) <= 150_000


_PATCH_BASE = {}


def _patch_base_blob():
    """A small store with an archive arena, pickled once: each example
    starts from an unpickled copy, as a worker's pin does."""
    import pickle

    from repro import TamperEvidentStore

    if not _PATCH_BASE:
        store = TamperEvidentStore.create(total_blocks=96, archive_blocks=32)
        store.put("/seed", b"s" * 700)
        store.seal("/seed")
        _PATCH_BASE["blob"] = pickle.dumps(store, pickle.HIGHEST_PROTOCOL)
    return _PATCH_BASE["blob"]


_store_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 3), st.integers(0, 1500)),
    st.tuples(st.just("seal"), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("get"), st.integers(0, 3)),
    st.tuples(st.just("verify"), st.integers(0, 3)),
    st.tuples(st.just("audit"), st.booleans()),
    st.tuples(st.just("archive"), st.integers(0, 1), st.integers(1, 900)),
    st.tuples(st.just("heat_dot"), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("write_block"), st.integers(0, 2**31 - 1)),
)


def _run_store_op(store, op):
    from repro.device.sero import BLOCK_SIZE
    from repro.errors import ReproError

    kind, *args = op
    path = f"/obj-{args[0]}" if kind in (
        "put", "seal", "delete", "get", "verify") else None
    try:
        if kind == "put":
            store.put(path, bytes([args[1] % 251]) * args[1], overwrite=True)
        elif kind in ("seal", "delete", "get", "verify"):
            getattr(store, kind)(path)
        elif kind == "audit":
            store.audit(deep=args[0])
        elif kind == "archive":
            store.archive(f"a{args[0]}", b"%d" % args[1] * 3)
        elif kind == "heat_dot":  # a probe heats one dot anywhere
            medium = store.archive_device.medium if args[0] % 2 \
                else store.device.medium
            medium.heat_dot(args[0] % medium.geometry.total_dots)
        else:  # a raw sector write below the file system
            device = store.device
            device.write_block(args[0] % device.total_blocks,
                               bytes([args[0] % 256]) * BLOCK_SIZE)
    except ReproError:
        pass  # a refused op may still have moved state: the patch carries it


def _assert_same_store(a, b):
    from repro.parallel.session import store_fingerprint

    for mine, theirs in ((a.device, b.device),
                         (a.archive_device, b.archive_device)):
        assert np.array_equal(mine.medium._mag, theirs.medium._mag)
        assert np.array_equal(mine.medium._sharpness,
                              theirs.medium._sharpness)
        assert mine.medium._rng.bit_generator.state == \
            theirs.medium._rng.bit_generator.state
        assert mine.medium.counters == theirs.medium.counters
    assert store_fingerprint(a) == store_fingerprint(b)
    assert a.fs.imap == b.fs.imap and a.fs._meta == b.fs._meta
    assert a.receipts == b.receipts and a.archives == b.archives


def test_store_patch_graph_anchors_the_store_config():
    """The frozen ``StoreConfig`` is anchored like the geometry: a cut
    names it instead of pickling it, and the receiving store keeps its
    own (equal) one."""
    import pickle

    from repro.api.store import StoreConfig, StoreStatePatch

    a, b = pickle.loads(_patch_base_blob()), pickle.loads(_patch_base_blob())
    config = b.config
    a.put("/obj-0", b"x" * 700)
    patch = StoreStatePatch.cut(a)
    assert StoreConfig.__name__.encode() not in patch.graph
    pickle.loads(pickle.dumps(patch, pickle.HIGHEST_PROTOCOL)).apply(b)
    assert b.config is config and b.config == a.config
    assert b.fs.stat("/obj-0") == a.fs.stat("/obj-0")


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_store_ops, max_size=10),
       back=st.lists(_store_ops, max_size=6))
def test_store_patch_carries_any_trace(ops, back):
    """``apply(cut(a -> b), a) == b``: a copy taken at the last sync,
    patched with what a random trace of store, device and medium
    operations made, equals the traced store — media bytes of both
    devices, RNG state, counters, file-system tables and the
    fingerprint — and keeps its object identities.  The patch then
    goes the other way, as a worker's reply does, and both copies
    continue the same random sequence."""
    import pickle

    from repro.api.store import StoreStatePatch

    blob = _patch_base_blob()
    a, b = pickle.loads(blob), pickle.loads(blob)
    held = (b.device, b.device.medium, b.fs, b.archive_device, b.venti)
    for op in ops:
        _run_store_op(a, op)
    patch = StoreStatePatch.cut(a)
    pickle.loads(pickle.dumps(patch, pickle.HIGHEST_PROTOCOL)).apply(b)
    _assert_same_store(a, b)
    assert (b.device, b.device.medium, b.fs, b.archive_device,
            b.venti) == held
    assert b.fs.device is b.device and b.venti.device is b.archive_device
    assert b.device.scanner.account is b.device.account

    for op in back:
        _run_store_op(b, op)
    pickle.loads(pickle.dumps(StoreStatePatch.cut(b),
                              pickle.HIGHEST_PROTOCOL)).apply(a)
    _assert_same_store(a, b)
    for store in (a, b):
        _run_store_op(store, ("audit", True))
    _assert_same_store(a, b)


def test_store_patch_after_a_probe_heat_and_a_seal():
    """A dot heated under the file system flushes its metadata cache,
    and the seal then refills it: the copy's cache must come out equal
    although neither side's cache is the one it was unpickled with."""
    import pickle

    from repro.api.store import StoreStatePatch

    blob = _patch_base_blob()
    a, b = pickle.loads(blob), pickle.loads(blob)
    for op in (("heat_dot", 0), ("seal", 0)):
        _run_store_op(a, op)
    pickle.loads(pickle.dumps(StoreStatePatch.cut(a),
                              pickle.HIGHEST_PROTOCOL)).apply(b)
    _assert_same_store(a, b)
    assert a.fs._meta_epoch == b.fs._meta_epoch


def test_a_cut_right_after_a_sync_carries_no_cache_entries():
    import pickle

    from repro.api.store import StoreStatePatch
    from repro.parallel.session import mark_synced

    store = pickle.loads(_patch_base_blob())
    assert StoreStatePatch.cut(store).meta is None  # unpickled: in sync
    store.put("/obj-1", b"x" * 900)
    assert store.get("/seed") == b"s" * 700
    assert StoreStatePatch.cut(store).meta is not None
    assert StoreStatePatch.cut(store).meta is None
    store.put("/obj-2", b"y" * 40)
    mark_synced(store)  # a pin ships the store whole
    copy = pickle.loads(pickle.dumps(store, pickle.HIGHEST_PROTOCOL))
    assert StoreStatePatch.cut(store).meta is None
    assert StoreStatePatch.capture(store).meta is None
    store.put("/obj-3", b"z" * 40)
    patch = StoreStatePatch.cut(store)
    assert patch.meta is not None
    patch.apply(copy)
    assert StoreStatePatch.cut(copy).meta is None  # an apply syncs too
    assert copy.fs._meta == store.fs._meta


def _assert_same_cache_and_table(a, b):
    assert a.fs._meta == b.fs._meta
    assert a.fs._meta_epoch == b.fs._meta_epoch
    assert a.fs.table._states == b.fs.table._states
    assert a.fs.table._owners == b.fs.table._owners
    assert a.fs.table.segments == b.fs.table.segments


@settings(max_examples=25, deadline=None)
@given(before=st.lists(_store_ops, max_size=6),
       legs=st.lists(st.lists(_store_ops, max_size=5), min_size=3,
                     max_size=3))
def test_pin_then_alternating_cuts_keep_cache_and_table_equal(before, legs):
    """The rpc session's sequence: the client pins a copy on a worker
    (:func:`mark_synced`, then the store ships whole), then client,
    worker and client again each run operations and send the other
    side the patch they cut.  Every cut diffs the metadata cache
    against the last sync point, so both sides' cache and segment
    table stay equal after each fold."""
    import pickle

    from repro.api.store import StoreStatePatch
    from repro.parallel.session import mark_synced

    client = pickle.loads(_patch_base_blob())
    for op in before:
        _run_store_op(client, op)
    mark_synced(client)
    worker = pickle.loads(pickle.dumps(client, pickle.HIGHEST_PROTOCOL))
    _assert_same_cache_and_table(client, worker)
    for leg, (mine, theirs) in enumerate(((client, worker),
                                          (worker, client),
                                          (client, worker))):
        for op in legs[leg]:
            _run_store_op(mine, op)
        patch = StoreStatePatch.cut(mine)
        pickle.loads(pickle.dumps(patch, pickle.HIGHEST_PROTOCOL)) \
            .apply(theirs)
        _assert_same_cache_and_table(client, worker)
        _assert_same_store(client, worker)


# ---------------------------------------------------------------------------
# One owner of "heated": mag == 0 exactly where sharpness fell below the
# threshold, under any trace of medium operations


_TRACE_DOTS = 128  # MediumGeometry(cols=32, rows=4, dots_per_block=16)
_SPAN = 16

_medium_ops = st.one_of(
    st.tuples(st.just("write_mag"), st.integers(0, _TRACE_DOTS - 1),
              st.integers(0, 1)),
    st.tuples(st.just("write_mag_span"),
              st.integers(0, _TRACE_DOTS - _SPAN),
              st.lists(st.integers(0, 1), min_size=_SPAN, max_size=_SPAN)),
    st.tuples(st.just("heat_span"), st.integers(0, _TRACE_DOTS - _SPAN),
              st.lists(st.booleans(), min_size=_SPAN, max_size=_SPAN)),
    st.tuples(st.just("heat_dot"), st.integers(0, _TRACE_DOTS - 1)),
    st.tuples(st.just("bulk_erase")),
    st.tuples(st.just("pickle")),
)


def _assert_heated_owned_by_mag(medium):
    from repro.medium.dot import HEATED_SHARPNESS_THRESHOLD

    n = medium.geometry.total_dots
    heated = medium._sharpness < HEATED_SHARPNESS_THRESHOLD
    assert np.array_equal(medium._mag == 0, heated)
    assert np.array_equal(medium.image_heated(), heated)
    assert np.array_equal(medium.image_heated(range(0, n, 3)), heated[::3])
    assert medium.heated_count() == int(heated.sum())
    if medium._k_scale is None:
        defects = np.zeros(n, dtype=bool)
    else:
        defects = ~heated & (medium._k_scale > medium.config.write_field)
    assert np.array_equal(medium.defect_map(0, n), defects)
    states = np.where(heated, "H", np.where(medium._mag > 0, "1", "0"))
    assert medium.snapshot_states(0, n) == states.tolist()


@settings(max_examples=40, deadline=None)
@given(collateral=st.booleans(), sigma=st.sampled_from([0.0, 0.3]),
       ops=st.lists(_medium_ops, max_size=30))
def test_mag_zero_is_heated_under_any_trace(collateral, sigma, ops):
    """With ``collateral_heating`` on, a leaky heat sink makes every
    neighbour pulse partial (sharpness x ~0.6), so dots cross the
    threshold inside ``_apply_pulse`` after several pulses; without it,
    ``heat_span`` takes the batched ``_heat_many`` path.  Pickle round
    trips then carry non-uniform sharpness through ``__setstate__``."""
    import pickle
    from dataclasses import replace

    from repro.medium.geometry import MediumGeometry
    from repro.medium.medium import MediumConfig, PatternedMedium
    from repro.physics.thermal import DEFAULT_THERMAL

    config = MediumConfig(collateral_heating=collateral,
                          switching_sigma=sigma, seed=7)
    if collateral:
        config.thermal = replace(DEFAULT_THERMAL, heat_sink_factor=8.0)
    medium = PatternedMedium(MediumGeometry(cols=32, rows=4,
                                            dots_per_block=_SPAN), config)
    _assert_heated_owned_by_mag(medium)
    for op, *args in ops:
        if op == "write_mag":
            medium.write_mag(*args)
        elif op == "write_mag_span":
            medium.write_mag_span(*args)
        elif op == "heat_span":
            start, pattern = args
            medium.heat_span(start, start + _SPAN, pattern)
        elif op == "heat_dot":
            medium.heat_dot(*args)
        elif op == "bulk_erase":
            medium.bulk_erase()
        else:
            medium = pickle.loads(pickle.dumps(medium,
                                               pickle.HIGHEST_PROTOCOL))
        _assert_heated_owned_by_mag(medium)


@settings(max_examples=20)
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=30,
                unique=True))
def test_fossil_membership_property(keys):
    from repro.crypto.sha256 import sha256_digest
    from repro.device.sero import SERODevice
    from repro.integrity.fossil import FossilizedIndex

    index = FossilizedIndex(SERODevice.create(512), arena_start=16,
                            arena_blocks=480)
    hashes = [sha256_digest(k) for k in keys]
    for h in hashes:
        index.insert(h)
    assert all(index.contains(h) for h in hashes)
    assert not index.contains(sha256_digest(b"\x00definitely-absent"))
