"""TamperEvidentStore façade tests: typed request/response objects,
equivalence with the pre-façade entry points, batch grain, arenas."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.store import (
    AuditReport,
    ObjectInfo,
    SealReceipt,
    StoreConfig,
    TamperEvidentStore,
    VerifyReport,
)
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.errors import (
    ConfigurationError,
    FileExistsError_,
    ImmutableFileError,
    IntegrityError,
    NoSpaceError,
    NotADirectoryError_,
    ReproError,
)
from repro.fs.fsck import fsck
from repro.fs.inode import FileType
from repro.fs.lfs import SeroFS
from repro.fs.segment import BlockState
from repro.medium.medium import MediumConfig


@pytest.fixture
def store() -> TamperEvidentStore:
    return TamperEvidentStore.create(total_blocks=256)


# -- object grain -------------------------------------------------------------


def test_put_get_roundtrip(store):
    info = store.put("/a.txt", b"hello world")
    assert isinstance(info, ObjectInfo)
    assert info.path == "/a.txt" and info.size == 11
    assert not info.sealed and info.line_start is None
    assert store.get("/a.txt") == b"hello world"


def test_put_refuses_overwrite_by_default(store):
    store.put("/a", b"one")
    with pytest.raises(FileExistsError_):
        store.put("/a", b"two")
    info = store.put("/a", b"two", overwrite=True)
    assert info.size == 3
    assert store.get("/a") == b"two"


def test_delete_and_list(store):
    store.put("/x", b"1")
    store.put("/y", b"2")
    assert store.list("/") == ["x", "y"]
    store.delete("/x")
    assert store.list("/") == ["y"]


# -- make_parents: one walk, and ticks only for what it creates ---------------


def _small_store(total_blocks=256):
    # a defect-free medium needs no format scan
    return TamperEvidentStore.create(
        total_blocks=total_blocks, format_scan=False,
        medium_config=MediumConfig(seed=5))


def _count_mkdirs(store, monkeypatch):
    calls = []
    real = store.fs.mkdir
    monkeypatch.setattr(store.fs, "mkdir",
                        lambda path: calls.append(path) or real(path))
    return calls


def _record_written_blocks(store, monkeypatch):
    written = []
    real = store.device.write_block_run

    def recorder(first, payloads):
        written.extend(range(first, first + len(payloads)))
        return real(first, payloads)
    monkeypatch.setattr(store.device, "write_block_run", recorder)
    return written


def _file_blocks(fs, ino):
    pointers, indirect = fs._load_pointers(fs._read_inode(ino))
    return {fs.imap[ino], *pointers, *indirect}


def test_put_into_an_existing_deep_path_ticks_once(monkeypatch):
    store = _small_store()
    fs = store.fs
    store.put("/a/b/c/d/one", b"first", make_parents=True)
    tick, imap = fs.tick, dict(fs.imap)
    mkdirs = _count_mkdirs(store, monkeypatch)
    written = _record_written_blocks(store, monkeypatch)

    info = store.put("/a/b/c/d/two", b"second", make_parents=True)

    assert fs.tick == tick + 1 == info.mtime
    assert mkdirs == []
    parent = fs._lookup("/a/b/c/d")[0]
    # of the directories only the parent moved; the file is new
    assert {ino for ino in fs.imap if imap.get(ino) != fs.imap[ino]} == \
        {parent, info.ino}
    assert set(written) == _file_blocks(fs, parent) | \
        _file_blocks(fs, info.ino)


def test_put_creates_exactly_the_missing_parents_in_order(monkeypatch):
    store = _small_store()
    fs = store.fs
    store.put("/a/b/x", b"x", make_parents=True)
    tick, inos = fs.tick, set(fs.imap)
    mkdirs = _count_mkdirs(store, monkeypatch)

    info = store.put("/a/b/c/d/e/f", b"f", make_parents=True)

    assert mkdirs == []
    # three directories and the file, each one tick, parent first
    assert fs.tick == tick + 4
    created = [fs._lookup(path)[0]
               for path in ("/a/b/c", "/a/b/c/d", "/a/b/c/d/e")]
    assert set(fs.imap) - inos == {*created, info.ino}
    assert created + [info.ino] == sorted(created + [info.ino])
    assert all(fs.stat(path).ftype is FileType.DIRECTORY
               for path in ("/a/b/c", "/a/b/c/d", "/a/b/c/d/e"))
    assert store.list("/a/b") == ["c", "x"]
    assert store.list("/a/b/c") == ["d"]
    assert store.list("/a/b/c/d") == ["e"]
    assert store.list("/a/b/c/d/e") == ["f"]


def test_put_through_a_file_is_not_a_directory():
    store = _small_store()
    store.put("/a/f", b"file", make_parents=True)
    for path in ("/a/f/x", "/a/f/x/y"):
        tick = store.fs.tick
        with pytest.raises(NotADirectoryError_):
            store.put(path, b"y", make_parents=True)
        assert store.fs.tick == tick
    assert store.list("/a") == ["f"]
    assert store.get("/a/f") == b"file"


_TREE = ("/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/x", "/b/a/b", "/b/c")


def _mkdirs_then_put(store, path, data):
    """The reference: one ``mkdir`` per prefix, existing ones skipped."""
    prefix = ""
    for part in path.strip("/").split("/")[:-1]:
        prefix = f"{prefix}/{part}"
        try:
            store.fs.mkdir(prefix)
        except FileExistsError_:
            pass
    return store.put(path, data, overwrite=True)


def _observe(fn, *args):
    """A call's error, or the part of its result no tick reaches: the
    ticks stamp inodes, and so line hashes, and age the cleaner's
    segments, and so may move where it puts things."""
    try:
        value = fn(*args)
    except ReproError as exc:
        return type(exc).__name__
    if isinstance(value, ObjectInfo):
        return (value.path, value.ino, value.size, value.sealed)
    return (value.path, value.n_blocks)


def _tree(store, path="/"):
    """Every directory's listing and every file's bytes under ``path``."""
    out = {}
    for name in store.list(path):
        child = f"{path.rstrip('/')}/{name}"
        if store.fs.stat(child).ftype is FileType.DIRECTORY:
            out[child] = _tree(store, child)
        else:
            out[child] = store.get(child)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_TREE),
              st.integers(0, 3000)),
    st.tuples(st.just("seal"), st.sampled_from(_TREE))),
    min_size=1, max_size=16))
def test_make_parents_put_equals_mkdirs_then_put(trace):
    """Up to inode ``mtime``s (a failed ``mkdir`` ticks, the walk does
    not), the walk is the per-prefix ``mkdir`` loop: the same results
    and errors, the same tree and bytes, the same ``fsck``."""
    walked, looped = _small_store(128), _small_store(128)
    for op in trace:
        if op[0] == "put":
            data = bytes([op[2] % 251]) * op[2]
            assert _observe(lambda: walked.put(
                op[1], data, overwrite=True, make_parents=True)) == \
                _observe(_mkdirs_then_put, looped, op[1], data), op
        else:
            assert _observe(walked.seal, op[1]) == \
                _observe(looped.seal, op[1]), op
    assert _tree(walked) == _tree(looped)

    def checked(store):
        report = fsck(store)
        return (report.errors, report.warnings,
                sorted(result.status.name for result
                       in report.heated_verifications.values()))
    assert checked(walked) == checked(looped)


# -- sealing ------------------------------------------------------------------


def test_seal_returns_receipt_and_freezes(store):
    store.put("/ledger", b"entry " * 100)
    receipt = store.seal("/ledger", timestamp=42)
    assert isinstance(receipt, SealReceipt)
    assert receipt.timestamp == 42
    assert len(receipt.line_hash) == 32
    assert store.info("/ledger").sealed
    assert store.info("/ledger").line_start == receipt.line_start
    with pytest.raises(ImmutableFileError):
        store.put("/ledger", b"rewrite", overwrite=True)
    with pytest.raises(ImmutableFileError):
        store.delete("/ledger")
    # sealed data still reads at magnetic speed
    assert store.get("/ledger") == b"entry " * 100


def test_seal_many_batch(store):
    paths = []
    for i in range(4):
        path = f"/doc-{i}"
        store.put(path, bytes([i]) * 700)
        paths.append(path)
    receipts = store.seal_many(paths, timestamp=7)
    assert [r.path for r in receipts] == paths
    starts = {r.line_start for r in receipts}
    assert len(starts) == 4
    assert set(store.receipts) == set(paths)
    report = store.audit()
    assert report.lines_verified == 4 and report.clean


_ARENAS = StoreConfig(total_blocks=256, audit_log=True,
                      fossil_blocks=64, archive_blocks=64)


def _fill(store: TamperEvidentStore, n: int = 5):
    paths = [f"/f{i}" for i in range(n)]
    for i, path in enumerate(paths):
        # mixed sizes: some lines share a length, some do not
        store.put(path, bytes([i + 1]) * (60 + 200 * (i % 3)))
    return paths


def test_seal_many_equals_seal_loop_on_twin_store():
    batch, loop = (TamperEvidentStore.create(_ARENAS) for _ in range(2))
    paths = _fill(batch)
    _fill(loop)
    receipts = [loop.seal(path) for path in paths]
    assert batch.seal_many(paths) == receipts
    assert batch.receipts == loop.receipts
    a, b = batch.device, loop.device
    assert sorted(a._lines.items()) == sorted(b._lines.items())
    assert a.medium._rng.bit_generator.state == \
        b.medium._rng.bit_generator.state
    assert sorted(a.medium.counters.items()) == \
        sorted(b.medium.counters.items())
    assert a.medium._mut_epoch == b.medium._mut_epoch
    assert a.account.elapsed == b.account.elapsed
    assert batch.fossil.node_count == loop.fossil.node_count
    assert batch.fossil.sealed_nodes == loop.fossil.sealed_nodes
    assert all(batch.fossil.contains(r.line_hash) for r in receipts)


def test_seal_many_duplicate_path_seals_prefix_then_raises():
    store = TamperEvidentStore.create(_ARENAS)
    paths = _fill(store, n=3)
    with pytest.raises(ImmutableFileError):
        store.seal_many([paths[0], paths[1], paths[0], paths[2]])
    # the prefix before the failure is sealed and fully recorded; the
    # suffix is untouched and still sealable
    assert paths[0] in store.receipts and paths[1] in store.receipts
    assert paths[2] not in store.receipts
    assert store.verify(paths[0]).status is VerifyStatus.INTACT
    store.seal(paths[2])


def test_seal_many_no_space_mid_batch_commits_prefix():
    store = TamperEvidentStore.create(
        StoreConfig(total_blocks=128, audit_log=True))
    store.put("/small", b"s" * 40)
    store.put("/big", b"B" * (40 * 512))  # cannot fit a line this large
    with pytest.raises(NoSpaceError):
        store.seal_many(["/small", "/big"])
    assert "/small" in store.receipts and "/big" not in store.receipts
    assert store.verify("/small").status is VerifyStatus.INTACT


def test_put_sealed_idiom(store):
    receipt = store.put_sealed("/evidence.bin", b"x" * 600, timestamp=3)
    assert store.info("/evidence.bin").sealed
    assert store.verify("/evidence.bin").intact
    assert receipt.path == "/evidence.bin"


def test_facade_matches_legacy_entry_points():
    """The shim guarantee: same device state through either surface."""
    data = b"record " * 200
    store = TamperEvidentStore.create(total_blocks=256)
    store.put("/f", data)
    receipt = store.seal("/f", timestamp=9)

    legacy_device = SERODevice.create(256)
    legacy_device.format()
    legacy_fs = SeroFS.format(legacy_device)
    legacy_fs.create("/f", data)
    legacy_record = legacy_fs.heat_file("/f", timestamp=9)

    assert receipt.line_start == legacy_record.start
    assert receipt.n_blocks == legacy_record.n_blocks
    assert receipt.line_hash == legacy_record.line_hash
    assert legacy_fs.verify_file("/f").status is VerifyStatus.INTACT
    assert store.verify("/f").status is VerifyStatus.INTACT


# -- verification and audit ----------------------------------------------------


def test_verify_reports_tampering(store):
    from repro.security import attacks

    store.put("/t", b"target " * 120)
    receipt = store.seal("/t")
    assert store.verify("/t").intact
    attacks.mwb_data(store.device, receipt.line_start)
    report = store.verify("/t")
    assert isinstance(report, VerifyReport)
    assert report.status is VerifyStatus.HASH_MISMATCH
    assert report.tamper_evident and not report.intact


def test_audit_labels_and_counts(store):
    store.put("/a", b"a" * 600)
    store.put("/b", b"b" * 600)
    store.seal_many(["/a", "/b"])
    report = store.audit(deep=True)
    assert isinstance(report, AuditReport)
    assert report.deep
    assert len(report) == 2
    assert sorted(r.label for r in report) == ["/a", "/b"]
    assert report.intact_count == 2
    assert report.tampered == []
    assert report.fs_errors == []
    assert report.clean
    assert report.device_seconds > 0


def test_audit_uses_batched_engine_by_default(store, monkeypatch):
    """The audit sweep must go through verify_lines (the bulk path),
    not a per-line verify_line loop."""
    store.put("/a", b"a" * 600)
    store.put("/b", b"b" * 600)
    store.seal_many(["/a", "/b"])
    calls = {"lines": 0, "single": 0}
    real_many = type(store.device).verify_lines

    def spy_many(self, starts):
        calls["lines"] += 1
        return real_many(self, starts)

    monkeypatch.setattr(type(store.device), "verify_lines", spy_many)
    store.audit()
    assert calls["lines"] >= 1


def test_deep_audit_surfaces_fs_errors(store):
    from repro.security import attacks

    store.put("/t", b"x" * 600)
    store.seal("/t")
    attacks.clear_directory(store.fs)
    report = store.audit(deep=True)
    # tree walk now misses the sealed file -> at least a warning/error
    assert report.fs_warnings or report.fs_errors


# -- device-grain mode ----------------------------------------------------------


def test_attach_bare_device_is_device_grain_only():
    device = SERODevice.create(64)
    store = TamperEvidentStore.attach(device)
    scan = store.format_device()
    assert scan.blocks == 64 and scan.bad_blocks == 0
    with pytest.raises(ConfigurationError):
        store.put("/nope", b"")
    with pytest.raises(ConfigurationError):
        store.archive("nope", b"")
    with pytest.raises(ConfigurationError):
        store.seal_log()
    device.write_block(1, b"\x07" * 512)
    device.heat_line(0, 2)
    report = store.audit()
    assert report.lines_verified == 1 and report.clean
    assert store.verify_line(0).intact


def test_format_device_refuses_a_mounted_store():
    """The scan writes every block: on a store with a file system it
    would erase the tree under it (even an empty one — the next put
    would read a wiped superblock), so it refuses before the device
    is touched."""
    store = TamperEvidentStore.create(total_blocks=64)
    before = dict(store.device.medium.counters)
    with pytest.raises(ConfigurationError, match="create"):
        store.format_device()
    assert dict(store.device.medium.counters) == before
    assert store.put("/after", b"still mounted").size == 13
    assert store.get("/after") == b"still mounted"


def test_mount_reopens_filesystem():
    store = TamperEvidentStore.create(total_blocks=256)
    store.put("/persist", b"payload " * 64)
    store.seal("/persist")
    store.fs.checkpoint()
    reopened = TamperEvidentStore.mount(store.device)
    assert reopened.get("/persist") == b"payload " * 64
    assert reopened.audit().clean


# -- remount: the medium is the one record of what is sealed ------------------------


def _sealed_store(total_blocks, paths=("/a", "/b")):
    """A store with each of ``paths`` put (3000 B) and sealed, and its
    checkpoint as format left it: it lists no line."""
    store = TamperEvidentStore.create(total_blocks=total_blocks)
    for path in paths:
        store.put(path, path.encode() * 1500)
        store.seal(path)
    return store


def _remount(store, over):
    """Mount ``store``'s medium again: on a fresh device over a pickled
    copy of the medium, or on the live device itself."""
    device = store.device if over == "live" else \
        SERODevice(pickle.loads(pickle.dumps(store.device.medium)))
    return TamperEvidentStore.mount(device)


def _lines(store):
    return [(rec.start, rec.n_blocks) for rec in store.device.heated_lines]


@pytest.fixture(params=["copy", "live"])
def over(request):
    return request.param


def test_mount_registers_every_sealed_line(over):
    store = _sealed_store(256)
    sealed = _lines(store)
    mounted = _remount(store, over)
    assert _lines(mounted) == sealed
    assert {mounted.fs.table.state(pba) for start, n in sealed
            for pba in range(start, start + n)} == {BlockState.HEATED}
    report = mounted.audit()
    assert [(r.line_start, r.status) for r in report.reports] == \
        [(start, VerifyStatus.INTACT) for start, _n in sealed]


def test_puts_after_mount_run_until_the_device_is_full(over):
    """No sealed block is handed out again: the puts end at
    ``NoSpaceError``, never at a ``ReadError`` of an overwritten line
    or a ``HeatedBlockError`` of a write into one."""
    store = _sealed_store(256)
    mounted = _remount(store, over)
    with pytest.raises(NoSpaceError):
        for i in range(200):
            mounted.put(f"/p{i}", b"x" * 2000)
    assert [r.status for r in mounted.audit().reports] == \
        [VerifyStatus.INTACT] * 2


def test_puts_after_mount_write_no_block_of_a_line(over, monkeypatch):
    store = _sealed_store(1024, ("/a", "/b", "/c"))
    mounted = _remount(store, over)
    written = _record_written_blocks(mounted, monkeypatch)
    for i in range(100):
        mounted.put(f"/p{i % 10}", bytes([i]) * 6000, overwrite=True)
    line_blocks = {pba for start, n in _lines(mounted)
                   for pba in range(start, start + n)}
    assert len(line_blocks) == 24
    assert not line_blocks & set(written)
    assert mounted.audit().clean


def test_a_forged_head_burned_before_a_remount_hides_no_line(over,
                                                            monkeypatch):
    """An aligned, CRC-valid head at 224 claiming 32 blocks holds the
    sealed lines at 240 and 248.  Mount registers both, keeps the
    forgery as a conflict that audits as tampering, and never
    allocates a block of either line nor the forged head."""
    from repro.device.sector import ElectricalPayload

    store = _sealed_store(256)
    assert _lines(store) == [(240, 8), (248, 8)]
    store.device.ews_block(224, ElectricalPayload(
        line_start=224, n_blocks_log2=5, line_hash=bytes(32)).pack())
    mounted = _remount(store, over)
    assert _lines(mounted) == [(240, 8), (248, 8)]
    assert [r.start for r in mounted.device.line_conflicts] == [224]
    verdicts = {r.line_start: r.status for r in mounted.audit().reports}
    assert verdicts[240] is verdicts[248] is VerifyStatus.INTACT
    assert verdicts[224] is not VerifyStatus.INTACT
    assert any("line head 224 " in e for e in fsck(mounted.fs).errors)
    written = _record_written_blocks(mounted, monkeypatch)
    with pytest.raises(NoSpaceError):
        for i in range(200):
            mounted.put(f"/p{i}", b"x" * 2000)
    assert not {224, *range(240, 256)} & set(written)
    assert written


# -- per-store engine: an explicit DeviceConfig, nothing ambient --------------------


def test_store_engine_pin_and_equivalence():
    scalar = TamperEvidentStore.create(
        total_blocks=64, device_config=DeviceConfig(span_engine=False))
    vec = TamperEvidentStore.create(total_blocks=64)
    assert not scalar.device.config.span_engine
    assert vec.device.config.span_engine
    for s in (scalar, vec):
        s.put("/o", b"z" * 600)
        s.seal("/o", timestamp=5)
    assert scalar.receipts["/o"].line_hash == vec.receipts["/o"].line_hash
    assert scalar.audit().clean and vec.audit().clean


# -- archive arena + fossil + instruction log --------------------------------------


def test_archive_roundtrip_and_fossil_catalogue():
    store = TamperEvidentStore.create(total_blocks=128,
                                      archive_blocks=64, fossil_blocks=32)
    payload = b"end of day " * 300
    receipt = store.archive("day-1", payload, timestamp=11)
    assert receipt.bytes_archived == len(payload)
    assert receipt.arena_blocks_used > 0
    assert store.retrieve("day-1") == payload
    assert store.archives == {"day-1": receipt.root_score}
    assert store.fossil.contains(receipt.root_score)
    with pytest.raises(IntegrityError):
        store.retrieve("day-2")
    # seal receipts are fossilised too
    store.put("/doc", b"d" * 600)
    sealed = store.seal("/doc")
    assert store.fossil.contains(sealed.line_hash)
    # the audit covers the archive device's sealed lines as well
    labels = [r.label for r in store.audit()]
    assert any(label and label.startswith("archive:") for label in labels)


def test_fossil_requires_even_archive_arena():
    with pytest.raises(ConfigurationError):
        StoreConfig(archive_blocks=3, fossil_blocks=8)


def test_instruction_log_records_and_seals():
    store = TamperEvidentStore.create(total_blocks=256, audit_log=True,
                                      audit_rotate_bytes=1 << 16)
    store.put("/a", b"1")
    store.put("/b", b"2" * 600)
    store.seal("/b")
    store.delete("/a")
    ops = [rec.split()[0] for _tick, rec in
           ((t, r.decode()) for t, r in store.history())]
    assert ops == ["put", "put", "seal", "delete"]
    sealed_chunk = store.seal_log()
    assert sealed_chunk is not None
    assert store.audit_log.is_history_intact()


def test_export_evidence_bag():
    store = TamperEvidentStore.create(total_blocks=512)
    export = store.export_evidence("case-7", {
        "a.log": b"evidence a " * 30,
        "b.log": b"evidence b " * 30,
    }, timestamp=99)
    assert export.intact
    assert {i.name for i in export.items} == {"a.log", "b.log"}
    assert export.manifest.name == "MANIFEST"
    assert export.directory == "/evidence/case-7"
    assert len(export.reports) == 3  # two exhibits + manifest
    assert store.get("/evidence/case-7/a.log") == b"evidence a " * 30
    # a second case shares the evidence root
    export2 = store.export_evidence("case-8", {"c.log": b"x" * 40})
    assert export2.intact


# -- fsck/deep_scan accept the façade ----------------------------------------------


def test_fsck_and_deep_scan_accept_store(store):
    from repro.fs.fsck import deep_scan, fsck

    store.put("/f", b"f" * 600)
    store.seal("/f")
    report = fsck(store)
    assert report.clean
    scan = deep_scan(store)
    assert len(scan.recovered) == 1
    assert scan.recovered[0].name_hint == "f"
    with pytest.raises(TypeError):
        fsck(42)
    with pytest.raises(TypeError):
        deep_scan("nope")


def test_describe_and_capacity(store):
    store.put("/f", b"f" * 600)
    store.seal("/f")
    desc = store.describe()
    assert desc["filesystem"] and desc["sealed_lines"] == 1
    assert "engine" not in desc  # 7.0: device.config.span_engine says
    with pytest.raises(TypeError):
        TamperEvidentStore.create(total_blocks=16, engine="scalar")
    cap = store.capacity()
    assert cap["total_blocks"] == 256
    assert cap["heated_blocks"] > 0


# -- fleet on the façade -------------------------------------------------------------


def test_fleet_scheduler_accepts_stores():
    """(Test id kept from the 3.x scheduler.)  A fleet over
    caller-built stores audits every one of them."""
    from repro.api.fleet import FleetStore

    stores = [TamperEvidentStore.create(total_blocks=64, format_scan=False)
              for _ in range(2)]
    for i, s in enumerate(stores):
        s.put("/x", bytes([i]) * 600)
        s.seal("/x")
    report = FleetStore(stores).audit()
    assert {rec.member for rec in report.member_records} == {0, 1}
    assert report.lines_verified == 2
    assert report.intact_count == 2
