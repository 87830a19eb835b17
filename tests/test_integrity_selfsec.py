"""Self-securing storage / audit log tests (Section 8)."""

import pytest

from repro.device.sero import SERODevice, VerifyStatus
from repro.fs.fsck import deep_scan
from repro.fs.lfs import SeroFS
from repro.integrity.selfsec import AuditLog, SelfSecuringFS
from repro.security import attacks


@pytest.fixture
def log(big_fs) -> AuditLog:
    return AuditLog(big_fs, rotate_bytes=256)


def test_log_and_history(log):
    log.log(1, b"create /a")
    log.log(2, b"write /a 100")
    history = log.history()
    assert history == [(1, b"create /a"), (2, b"write /a 100")]


def test_rotation_heats_chunks(log, big_fs):
    for tick in range(40):
        log.log(tick, b"op %d padded to some length........" % tick)
    assert log.sealed_chunks
    for name in log.sealed_chunks:
        assert big_fs.stat(name).heated
    assert log.is_history_intact()


def test_history_spans_sealed_and_active(log):
    for tick in range(40):
        log.log(tick, b"instruction %04d and padding......." % tick)
    history = log.history()
    assert [t for t, _ in history] == list(range(40))


def test_rotate_empty_is_noop(log):
    assert log.rotate() is None


def test_tampered_chunk_detected(log, big_fs):
    for tick in range(40):
        log.log(tick, b"instruction %04d and padding......." % tick)
    name = log.sealed_chunks[0]
    attacks.mwb_data(big_fs.device, big_fs.stat(name).line_start)
    assert not log.is_history_intact()
    statuses = {n: r.status for n, r in log.verify().items()}
    assert statuses[name] is VerifyStatus.HASH_MISMATCH


def test_oversized_record_rejected(log):
    with pytest.raises(Exception):
        log.log(1, b"\x00" * 70000)


def test_self_securing_fs_logs_mutations(big_fs):
    ss = SelfSecuringFS(big_fs, rotate_bytes=128)
    ss.create("/doc", b"v1")
    ss.write("/doc", b"v2")
    ss.read("/doc")  # reads are not logged
    ss.create("/kept", b"evidence")
    assert ss.heat_file("/kept", timestamp=3).start == \
        big_fs.stat("/kept").line_start
    ss.unlink("/doc")
    ss.seal_log()
    ops = [rec.split()[0] for _t, rec in ss.audit.history()]
    assert ops == [b"create", b"write", b"create", b"heat", b"unlink"]
    assert ss.audit.is_history_intact()


def test_log_survives_directory_wipe(big_fs):
    ss = SelfSecuringFS(big_fs, rotate_bytes=64)
    ss.create("/x", b"data")
    ss.write("/x", b"data2")
    ss.seal_log()
    n_chunks = len(ss.audit.sealed_chunks)
    attacks.clear_directory(big_fs)
    report = deep_scan(big_fs.device)
    recovered_logs = [f for f in report.recovered
                      if f.name_hint.startswith("log-")]
    assert len(recovered_logs) == n_chunks
    assert all(f.verification.status is VerifyStatus.INTACT
               for f in recovered_logs)
