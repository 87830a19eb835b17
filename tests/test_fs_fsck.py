"""fsck and forensic deep-scan tests (Section 5.2 recovery claims)."""

import pytest

from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.fs.fsck import deep_scan, fsck
from repro.fs.lfs import SeroFS
from repro.security import attacks


def test_fsck_clean_on_healthy_fs(fs):
    fs.mkdir("/d")
    fs.create("/d/f", b"data")
    fs.create("/sealed", b"seal me " * 50)
    fs.heat_file("/sealed")
    report = fsck(fs)
    assert report.clean
    assert not report.warnings
    assert all(r.status is VerifyStatus.INTACT
               for r in report.heated_verifications.values())


def test_fsck_detects_tampered_line(fs):
    fs.create("/sealed", b"seal me " * 50)
    record = fs.heat_file("/sealed")
    attacks.mwb_data(fs.device, record.start)
    report = fsck(fs)
    assert not report.clean
    assert any("hash-mismatch" in e for e in report.errors)


def test_fsck_detects_dangling_imap(fs):
    fs.create("/f", b"x")
    ino = fs.stat("/f").ino
    fs.imap[ino] = 200  # point at garbage
    report = fsck(fs, verify_lines=False)
    assert not report.clean


def test_fsck_warns_unreachable_inode(fs):
    fs.create("/f", b"x")
    ino = fs.stat("/f").ino
    # drop the directory entry but keep the imap entry
    parent, name = fs._lookup_parent("/f")
    entries = fs._dir_entries(parent)
    del entries[name]
    from repro.fs.directory import pack_entries

    fs._write_file_blocks(parent, pack_entries(entries))
    report = fsck(fs, verify_lines=False)
    assert any(str(ino) in w for w in report.warnings)


def test_deep_scan_recovers_heated_files(fs):
    payload = b"compliance record " * 40
    fs.create("/keep", payload)
    fs.heat_file("/keep")
    report = deep_scan(fs.device)
    assert report.intact_count == 1
    recovered = report.recovered[0]
    assert recovered.name_hint == "keep"
    assert recovered.data == payload


def test_deep_scan_after_directory_wipe(fs):
    payload = b"must survive " * 30
    fs.create("/victim", payload)
    fs.heat_file("/victim")
    attacks.clear_directory(fs)
    report = deep_scan(fs.device)
    names = [f.name_hint for f in report.recovered]
    assert "victim" in names
    assert report.recovered[names.index("victim")].data == payload


def test_deep_scan_flags_tampered_lines(fs):
    fs.create("/target", b"x" * 1000)
    record = fs.heat_file("/target")
    attacks.mwb_data(fs.device, record.start)
    report = deep_scan(fs.device)
    assert report.tampered_lines
    assert report.tampered_lines[0].status is VerifyStatus.HASH_MISMATCH


def test_deep_scan_ignores_unheated_files(fs):
    fs.create("/plain", b"not sealed")
    report = deep_scan(fs.device)
    assert report.recovered == []


def test_deep_scan_empty_device():
    device = SERODevice.create(64)
    report = deep_scan(device)
    assert report.recovered == []
    assert report.intact_count == 0


def test_deep_scan_multiple_files(fs):
    for i in range(3):
        fs.create(f"/doc{i}", bytes([i]) * 700)
        fs.heat_file(f"/doc{i}")
    report = deep_scan(fs.device)
    assert sorted(f.name_hint for f in report.recovered) == \
        ["doc0", "doc1", "doc2"]
    assert report.intact_count == 3


def _wiped_device(config: DeviceConfig) -> SERODevice:
    """Heated files behind a wiped directory: the Section 5.2 scene."""
    device = SERODevice.create(128, config=config)
    fs = SeroFS.format(device)
    for i in range(4):
        fs.create(f"/f{i}", bytes([i + 1]) * 2500)
        fs.heat_file(f"/f{i}")
    fs.checkpoint()
    attacks.clear_directory(fs)
    return device


def test_deep_scan_scalar_twin_recovers_identically():
    """The span-run pointer walk recovers what the scalar device's
    per-block walk recovers."""
    span = deep_scan(_wiped_device(DeviceConfig()))
    scalar = deep_scan(_wiped_device(DeviceConfig(span_engine=False)))

    def digest(report):
        return [(f.line_start, f.ino, f.name_hint, f.size, f.data,
                 f.verification.status) for f in report.recovered]

    assert sorted(f.data for f in span.recovered) == \
        [bytes([i + 1]) * 2500 for i in range(4)]
    assert digest(span) == digest(scalar)
    # span reads draw heated-dot noise per run rather than per block,
    # so simulated time agrees to that randomness, not bit-exactly
    assert span.device_seconds == pytest.approx(scalar.device_seconds,
                                                rel=1e-3)
