"""TamperEvidentStore façade tests: typed request/response objects,
equivalence with the pre-façade entry points, batch grain, arenas."""

import pytest

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
)
from repro.fs.lfs import SeroFS


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
