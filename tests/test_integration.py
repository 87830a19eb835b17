"""Cross-layer integration tests: whole-stack scenarios."""

import pytest

from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.fs.bimodal import bimodality
from repro.fs.cleaner import run_cleaner
from repro.fs.fsck import deep_scan, fsck
from repro.fs.lfs import FSConfig, SeroFS
from repro.integrity.evidence import EvidenceBag
from repro.medium.medium import MediumConfig
from repro.security import attacks
from repro.workloads.database import SimpleDatabase
from repro.workloads.synthetic import SyntheticWorkload, run_workload


def test_full_lifecycle_database_audit():
    """The paper's Section 1 story end to end: live DB, snapshot,
    tamper attempt, audit."""
    device = SERODevice.create(1024)
    fs = SeroFS.format(device)
    db = SimpleDatabase(fs)
    for rid in range(20):
        db.put(rid, f"record-{rid}".encode())
    db.snapshot("q1-audit", timestamp=100)
    # business continues: the live table keeps changing
    db.put(3, b"UPDATED")
    # a dishonest insider rewrites the snapshot's blocks raw
    line_start = fs.line_of_ino[fs.stat("/db/snapshot-q1-audit").ino]
    attacks.mwb_data(device, line_start)
    # the auditor's sweep finds it
    assert db.verify_snapshot("q1-audit").status is VerifyStatus.HASH_MISMATCH
    # and the untouched live table still works
    assert db.get(3) == b"UPDATED"


def test_aging_with_heats_then_remount_then_fsck():
    device = SERODevice.create(1024)
    fs = SeroFS.format(device)
    workload = SyntheticWorkload(n_files=10, n_ops=80, mean_size=1500,
                                 p_heat=0.1, seed=12)
    run_workload(fs, workload)
    run_cleaner(fs, max_segments=8)
    fs.checkpoint()
    remounted = SeroFS.mount(device)
    report = fsck(remounted)
    assert report.clean, report.errors
    for label, result in remounted.verify_all_files().items():
        assert result.status is VerifyStatus.INTACT, label


def test_forensic_story_directory_wipe_and_bulk_erase():
    """Section 5.2's worst case: wipe the index, then degauss."""
    device = SERODevice.create(512)
    fs = SeroFS.format(device)
    bag = EvidenceBag(fs, "/investigation")
    bag.add("keylog", b"stolen keystrokes " * 40)
    bag.add("netflow", b"203.0.113.7 exfil " * 40)
    bag.close()
    attacks.clear_directory(fs)
    # recovery before the eraser arrives
    scan = deep_scan(device)
    assert scan.intact_count == 3  # 2 exhibits + manifest
    # the attacker escalates to a bulk eraser
    attacks.bulk_erase(device)
    scan2 = deep_scan(device)
    # contents are gone, but every line still announces tampering
    assert len(scan2.recovered) + len(scan2.unparseable_lines) >= 1
    assert all(f.verification.tamper_evident for f in scan2.recovered)


def test_defective_device_end_to_end():
    device = SERODevice.create(
        256, medium_config=MediumConfig(switching_sigma=0.12,
                                        write_field=1.5, seed=20))
    device.format()
    assert device.bad_blocks  # the medium really is imperfect
    fs = SeroFS.format(device)
    fs.create("/data", b"works despite defects " * 30)
    assert fs.read("/data") == b"works despite defects " * 30
    fs.heat_file("/data")
    assert fs.verify_file("/data").status is VerifyStatus.INTACT


def test_device_end_of_life():
    """Section 8: the device gradually becomes read-only."""
    device = SERODevice.create(256)
    fs = SeroFS.format(device)
    heated = 0
    from repro.errors import NoSpaceError

    try:
        for i in range(100):
            fs.create(f"/batch{i}", bytes([i]) * 2500)
            fs.heat_file(f"/batch{i}", timestamp=i)
            heated += 1
    except NoSpaceError:
        pass
    assert heated > 5
    assert fs.free_space_blocks() < 16
    # everything heated so far remains verifiable
    for label, result in fs.verify_all_files().items():
        assert result.status is VerifyStatus.INTACT, label


def test_bimodality_after_mixed_aging():
    fs = SeroFS.format(SERODevice.create(1024),
                       FSConfig(heat_placement="cluster"))
    workload = SyntheticWorkload(n_files=12, n_ops=60, mean_size=1200,
                                 p_heat=0.15, seed=31)
    run_workload(fs, workload)
    assert bimodality(fs).index > 0.7


def test_scalar_sha256_class_agrees_with_line_hash():
    import struct

    from repro.crypto.hashutil import LINE_HASH_DOMAIN
    from repro.crypto.sha256 import SHA256

    device = SERODevice.create(64)
    message = LINE_HASH_DOMAIN
    for pba in range(1, 4):
        block = bytes([pba]) * 512
        device.write_block(pba, block)
        message += struct.pack(">Q", pba) + block
    assert SHA256(message).digest() == device.heat_line(0, 4).line_hash


def test_weakened_device_config_is_explicit():
    device = SERODevice.create(
        64, config=DeviceConfig(include_addresses_in_hash=False))
    for pba in range(1, 4):
        device.write_block(pba, b"\x01" * 512)
    device.heat_line(0, 4)
    assert device.verify_line(0).status is VerifyStatus.INTACT
