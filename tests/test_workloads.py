"""Workload generator, database, archive and trace tests."""

import pytest

from repro.device.sero import SERODevice, VerifyStatus
from repro.fs.lfs import SeroFS
from repro.workloads.archival import ComplianceArchive
from repro.workloads.database import SimpleDatabase, oltp_then_snapshot
from repro.workloads.synthetic import (
    FileOp,
    OpKind,
    SyntheticWorkload,
    payload_for,
    run_workload,
)
from repro.workloads.traces import Trace, record_workload


def test_workload_deterministic():
    ops_a = list(SyntheticWorkload(seed=5, n_files=4, n_ops=20).generate())
    ops_b = list(SyntheticWorkload(seed=5, n_files=4, n_ops=20).generate())
    assert ops_a == ops_b


def test_workload_different_seeds_differ():
    ops_a = list(SyntheticWorkload(seed=1, n_files=4, n_ops=30).generate())
    ops_b = list(SyntheticWorkload(seed=2, n_files=4, n_ops=30).generate())
    assert ops_a != ops_b


def test_payload_deterministic():
    op = FileOp(OpKind.CREATE, "/x", 100, seed=9)
    assert payload_for(op) == payload_for(op)
    assert len(payload_for(op)) == 100


def test_run_workload_counts(big_fs):
    workload = SyntheticWorkload(n_files=8, n_ops=40, mean_size=1024, seed=2)
    counts = run_workload(big_fs, workload)
    assert counts["create"] >= 8
    assert sum(counts.values()) > 0


def test_workload_never_mutates_heated_files(big_fs):
    workload = SyntheticWorkload(n_files=6, n_ops=60, mean_size=800,
                                 p_heat=0.3, seed=4)
    run_workload(big_fs, workload)
    for label, result in big_fs.verify_all_files().items():
        assert result.status is VerifyStatus.INTACT, label


def test_database_crud(fs):
    db = SimpleDatabase(fs)
    db.put(1, b"alice")
    db.put(2, b"bob")
    assert db.get(1) == b"alice"
    db.delete(1)
    assert db.get(1) is None
    assert len(db) == 1


def test_database_record_size_limit(fs):
    db = SimpleDatabase(fs)
    with pytest.raises(ValueError):
        db.put(1, b"\x00" * 100)


def test_database_snapshot_and_verify(big_fs):
    db = SimpleDatabase(big_fs)
    db.put(1, b"before")
    db.snapshot("audit", timestamp=10)
    db.put(1, b"after")  # live table keeps evolving
    snap = db.read_snapshot("audit")
    assert snap[1] == b"before"
    assert db.get(1) == b"after"
    assert db.verify_snapshot("audit").status is VerifyStatus.INTACT


def test_oltp_then_snapshot(big_fs):
    db = SimpleDatabase(big_fs)
    records = oltp_then_snapshot(db, n_transactions=30, snapshot_every=15)
    assert len(records) == 2
    assert len(db.snapshots()) == 2


def test_archive_periods(big_fs):
    archive = ComplianceArchive(big_fs, batch_bytes=1024,
                                retention_periods=10)
    for period in range(5):
        archive.run_period(period)
    assert len(archive.batches) == 5
    audit = archive.audit()
    assert all(r.status is VerifyStatus.INTACT for r in audit.values())


def test_archive_expiry_and_decommission(big_fs):
    archive = ComplianceArchive(big_fs, batch_bytes=512, retention_periods=3)
    for period in range(4):
        archive.run_period(period)
    assert len(archive.expired(current_period=3)) == 1
    assert not archive.decommissionable(3)
    assert archive.decommissionable(100)


def test_archive_run_until_full():
    fs = SeroFS.format(SERODevice.create(128))
    archive = ComplianceArchive(fs, batch_bytes=2048)
    done = archive.run_until_full(max_periods=100)
    assert 0 < done < 100  # the device filled up
    assert fs.free_space_blocks() < 16


def test_trace_roundtrip():
    workload = SyntheticWorkload(n_files=3, n_ops=10, seed=7)
    trace = record_workload(workload)
    assert len(trace) == 13
    trace.append(trace.ops[0])
    assert len(trace) == 14 and trace.ops[-1] == trace.ops[0]
    parsed = Trace.loads(trace.dumps())
    assert parsed.ops == trace.ops


def test_trace_loads_rejects_garbage():
    with pytest.raises(ValueError):
        Trace.loads("create /x\n")


def test_trace_replay_matches_direct_run():
    workload = SyntheticWorkload(n_files=4, n_ops=20, mean_size=600, seed=8)
    fs_direct = SeroFS.format(SERODevice.create(512))
    fs_replay = SeroFS.format(SERODevice.create(512))
    run_workload(fs_direct, workload)
    trace = record_workload(workload)
    trace.replay(fs_replay, ignore_errors=True)
    for name in fs_direct.listdir("/"):
        assert fs_direct.read(f"/{name}") == fs_replay.read(f"/{name}")
