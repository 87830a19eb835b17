"""SERODevice tests: the Section 3 sector/heat/verify contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.sector import BLOCK_SIZE, E_PAYLOAD_BYTES, ElectricalPayload
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.errors import (
    AlignmentError,
    BadBlockError,
    HeatedBlockError,
    HeatError,
    ReadError,
    WriteError,
)
from repro.fs.fsck import deep_scan, fsck
from repro.fs.lfs import SeroFS
from repro.medium.medium import MediumConfig
from repro.security.attacks import ewb_data

PAYLOAD = bytes(range(256)) * 2


def _heated(device, start=0, n=4):
    for pba in range(start + 1, start + n):
        device.write_block(pba, PAYLOAD)
    return device.heat_line(start, n, timestamp=5)


def test_block_roundtrip(small_device):
    small_device.write_block(3, PAYLOAD)
    assert small_device.read_block(3) == PAYLOAD


def test_unwritten_block_read_fails(small_device):
    with pytest.raises(ReadError):
        small_device.read_block(5)


def test_pba_range_checked(small_device):
    with pytest.raises(ReadError):
        small_device.read_block(10_000)


def test_heat_line_basic(small_device):
    record = _heated(small_device)
    assert record.start == 0
    assert record.n_blocks == 4
    assert len(record.line_hash) == 32
    assert record.timestamp == 5


def test_heated_data_blocks_still_read_magnetically(small_device):
    _heated(small_device)
    # "Blocks 1..2^N-1 of a heated line can still be read magnetically"
    assert small_device.read_block(1) == PAYLOAD


def test_hash_block_not_readable_magnetically(small_device):
    _heated(small_device)
    with pytest.raises(HeatedBlockError):
        small_device.read_block(0)


def test_writes_into_heated_line_refused(small_device):
    _heated(small_device)
    with pytest.raises(HeatedBlockError):
        small_device.write_block(2, PAYLOAD)


def test_write_protect_can_be_disabled():
    device = SERODevice.create(64, config=DeviceConfig(
        enforce_write_protect=False))
    _heated(device)
    device.write_block(2, b"\x00" * BLOCK_SIZE)  # the raw attacker path
    assert device.verify_line(0).status is VerifyStatus.HASH_MISMATCH


def test_verify_intact(small_device):
    _heated(small_device)
    result = small_device.verify_line(0)
    assert result.status is VerifyStatus.INTACT
    assert not result.tamper_evident
    assert result.stored_hash == result.computed_hash


def test_line_alignment_enforced(small_device):
    with pytest.raises(AlignmentError):
        small_device.heat_line(1, 4)  # unaligned start
    with pytest.raises(AlignmentError):
        small_device.heat_line(0, 3)  # not a power of two
    with pytest.raises(AlignmentError):
        small_device.heat_line(0, 1)  # no data blocks
    with pytest.raises(AlignmentError):
        small_device.heat_line(60, 8)  # past the end (64-block device)


def _device_state(device):
    """Everything a refused or finished line operation could move."""
    medium, account = device.medium, device.account
    return (medium._mag.tobytes(), medium._sharpness.tobytes(),
            dict(medium.counters), medium._rng.bit_generator.state,
            account.elapsed, dict(account.by_category))


def test_a_line_past_the_end_is_refused_before_anything_moves(small_device):
    _heated(small_device, start=0, n=4)
    before = _device_state(small_device)
    # aligned on their own length, so only the end-of-medium check
    # stands between them and the device
    for start, n_blocks in ((64, 2), (64, 64), (0, 128)):
        with pytest.raises(AlignmentError, match="past end of medium"):
            small_device.heat_line(start, n_blocks)
        assert _device_state(small_device) == before, (start, n_blocks)


def test_verify_stops_at_the_first_tampered_electrical_read(small_device):
    """HH cells in a line's hash block are tampering, not a misread:
    ``verify_line`` must not spend its retries re-reading them.  Its
    erb charge, counters and RNG draws equal those of a device, on the
    same engine, that has no retries to spend."""
    once = SERODevice.create(64, config=DeviceConfig(
        span_engine=small_device.config.span_engine, verify_retries=0))
    assert small_device.config.verify_retries > 0
    for device in (small_device, once):
        _heated(device, start=0, n=4)
        ewb_data(device, 0, target_offset=0)
        assert device.verify_line(0).status is VerifyStatus.CELL_TAMPERED
        assert device.account.by_category["erb"] > 0
    assert _device_state(small_device) == _device_state(once)


def test_overlapping_line_rejected(small_device):
    _heated(small_device, start=0, n=4)
    with pytest.raises(AlignmentError):
        small_device.heat_line(0, 8)  # would engulf the existing line


def test_reheat_same_line_is_harmless(small_device):
    _heated(small_device, start=0, n=4)
    record = small_device.heat_line(0, 4, timestamp=5)
    assert record.n_blocks == 4
    assert small_device.verify_line(0).status is VerifyStatus.INTACT


def test_reheat_with_changed_data_leaves_evidence():
    # heat, then force-change a data block, then re-heat: the new hash
    # differs, the ews produces HH cells and the heat fails loudly
    device = SERODevice.create(64, config=DeviceConfig(
        enforce_write_protect=False))
    _heated(device, start=0, n=4)
    device.write_block(1, b"\x11" * BLOCK_SIZE)
    with pytest.raises(HeatError):
        device.heat_line(0, 4, timestamp=6)
    assert device.verify_line(0).status is VerifyStatus.CELL_TAMPERED


def test_capacity_accounting(small_device):
    before = small_device.capacity_report()
    _heated(small_device, start=8, n=8)
    after = small_device.capacity_report()
    assert after["heated_blocks"] == before["heated_blocks"] + 8
    assert after["writable_blocks"] == before["writable_blocks"] - 8


def test_line_of_block_lookup(small_device):
    record = _heated(small_device, start=0, n=4)
    for pba in range(4):
        assert small_device.line_of_block(pba).start == record.start
    assert small_device.line_of_block(4) is None
    assert small_device.is_block_heated(2)
    assert not small_device.is_block_heated(9)


def test_scan_lines_recovers_registry(small_device):
    _heated(small_device, start=0, n=4)
    _heated(small_device, start=8, n=8)
    # forget everything, rediscover electrically
    recovered = small_device.scan_lines()
    starts = sorted(rec.start for rec in recovered)
    assert starts == [0, 8]
    assert small_device.is_block_heated(10)


def test_load_line_single(small_device):
    record = _heated(small_device, start=16, n=4)
    small_device._lines.clear()
    small_device._block_to_line.clear()
    loaded = small_device.load_line(16)
    assert loaded is not None
    assert loaded.line_hash == record.line_hash


def test_load_line_registers_exactly_the_line_as_mount_and_scan_do(device):
    # A 16-block and a 4-block line.  load_line registers
    # 1 << n_blocks_log2 blocks for each, and a remount and a scan_lines
    # rebuild (the discovery mount runs) reach the same registry.
    fs = SeroFS.format(device)
    fs.create("/small", b"s" * 300)
    fs.heat_file("/small")
    fs.create("/big", b"b" * 6000)
    fs.heat_file("/big")
    fs.checkpoint()
    lines = [(record.start, record.n_blocks) for record in device.heated_lines]
    assert sorted(n for _start, n in lines) == [4, 16]
    expected = {pba: start for start, n in lines
                for pba in range(start, start + n)}

    def registry(dev):
        return (dict(dev._lines), dict(dev._block_to_line))

    loaded = device.clone()
    loaded._lines.clear()
    loaded._block_to_line.clear()
    for start, n in lines:
        assert loaded.load_line(start).n_blocks == n
    assert loaded._block_to_line == expected
    assert registry(loaded) == registry(device)

    remounted = SeroFS.mount(SERODevice(device.clone().medium)).device
    scanned = device.clone()
    scanned.scan_lines()
    assert registry(remounted) == registry(scanned) == registry(device)


def test_load_line_on_virgin_block_returns_none(small_device):
    assert small_device.load_line(32) is None


def test_probe_block_electrical(small_device):
    _heated(small_device, start=0, n=4)
    assert small_device.probe_block_electrical(0)
    assert not small_device.probe_block_electrical(10)


def test_ews_validates_payload_size(small_device):
    with pytest.raises(WriteError):
        small_device.ews_block(0, b"short")


def test_format_populates_bad_blocks():
    device = SERODevice.create(
        32, medium_config=MediumConfig(switching_sigma=0.5, write_field=1.0,
                                       seed=3))
    device.format()
    assert device.bad_blocks
    bad = next(iter(device.bad_blocks))
    with pytest.raises(BadBlockError):
        device.read_block(bad)


def test_heat_refuses_lines_with_bad_blocks():
    device = SERODevice.create(
        32, medium_config=MediumConfig(switching_sigma=0.5, write_field=1.0,
                                       seed=3))
    device.format()
    bad = min(device.bad_blocks)
    line_start = (bad // 4) * 4
    with pytest.raises(BadBlockError):
        device.heat_line(line_start, 4)


def test_heat_refuses_a_bad_interior_block_under_a_healthy_head():
    # Block 32 is neither fragile nor bad, so the head checks pass and
    # only the bad-block check over the whole line can refuse [32, 40):
    # its one bad block is interior block 37, and the error names it.
    device = SERODevice.create(
        64, medium_config=MediumConfig(switching_sigma=0.1, write_field=1.4,
                                       seed=1))
    device.format()
    assert 32 not in device.fragile_blocks | device.bad_blocks
    assert [pba for pba in range(32, 40) if pba in device.bad_blocks] == [37]
    with pytest.raises(BadBlockError, match=r"contains bad block 37$"):
        device.heat_line(32, 8)
    assert not device.heated_lines


def test_format_after_heating_refused(small_device):
    _heated(small_device)
    with pytest.raises(WriteError):
        small_device.format()


def test_verify_all(small_device):
    _heated(small_device, start=0, n=4)
    _heated(small_device, start=8, n=8)
    results = small_device.verify_all()
    assert len(results) == 2
    assert all(r.status is VerifyStatus.INTACT for r in results)


def test_decommission_detection():
    device = SERODevice.create(8)
    for pba in (1, 2, 3, 5, 6, 7):
        device.write_block(pba, PAYLOAD)
    device.heat_line(0, 4)
    assert not device.is_decommissionable()
    device.heat_line(4, 4)
    assert device.is_decommissionable()


def test_timestamp_survives_scan(small_device):
    _heated(small_device, start=0, n=4)
    recovered = small_device.scan_lines()
    assert recovered[0].timestamp == 5


def test_forged_head_overrunning_the_device_is_a_mismatch(device):
    """A CRC-valid head burned at block 128 of a 256-block device that
    claims a 256-block line: the line would end at block 383, past the
    medium.  Verification reads it as a mismatch (it used to raise an
    address error out of every audit), and discovery skips it."""
    line = _heated(device, start=0, n=4)
    device.ews_block(128, ElectricalPayload(
        line_start=128, n_blocks_log2=8, line_hash=bytes(32)).pack())
    assert device.verify_line(128).status is VerifyStatus.HASH_MISMATCH
    assert [r.status for r in device.verify_lines([0, 128])] == \
        [VerifyStatus.INTACT, VerifyStatus.HASH_MISMATCH]
    assert device.load_line(128) is None
    assert [(r.start, r.n_blocks) for r in device.scan_lines()] == \
        [(line.start, line.n_blocks)]
    assert [r.status for r in device.verify_all()] == [VerifyStatus.INTACT]


def test_a_misaligned_forged_head_hides_no_real_line(small_device):
    """A real 8-block line heated at block 8 and a CRC-valid forged head
    at block 4 claiming ``line_start=4, n_blocks_log2=3``.  Real lines
    are aligned power-of-two extents of at least two blocks, so the
    misaligned head is a forgery: discovery skips it and finds the real
    line (it used to register the forgery and skip blocks 5-11 as its
    interior), and verifying it reads a mismatch.  A one-block head is
    refused the same way."""
    line = _heated(small_device, start=8, n=8)
    small_device.ews_block(4, ElectricalPayload(
        line_start=4, n_blocks_log2=3, line_hash=bytes(32)).pack())
    small_device.ews_block(20, ElectricalPayload(
        line_start=20, n_blocks_log2=0, line_hash=bytes(32)).pack())
    assert [(r.start, r.n_blocks) for r in small_device.scan_lines()] == \
        [(line.start, line.n_blocks)]
    assert [(r.start, r.status) for r in small_device.verify_all()] == \
        [(8, VerifyStatus.INTACT)]
    assert small_device.load_line(4) is None
    assert small_device.load_line(20) is None
    assert [r.status for r in small_device.verify_lines([4, 20, 8])] == \
        [VerifyStatus.HASH_MISMATCH, VerifyStatus.HASH_MISMATCH,
         VerifyStatus.INTACT]
    assert small_device.verify_line(4).status is VerifyStatus.HASH_MISMATCH
    assert small_device.verify_line(20).status is VerifyStatus.HASH_MISMATCH


def _forge_head(device, start, n_blocks_log2):
    """Burn a CRC-valid head at ``start`` claiming ``2**n_blocks_log2``
    blocks under a hash no content has: one electrical write."""
    device.ews_block(start, ElectricalPayload(
        line_start=start, n_blocks_log2=n_blocks_log2,
        line_hash=bytes(range(32))).pack())


def test_a_containing_forged_head_hides_no_real_line(small_device):
    """An aligned, CRC-valid forged head at block 0 claiming 16 blocks
    over a real 8-block line at block 8.  Discovery used to register
    the forgery and skip blocks 1-15 as its interior, so the real line
    vanished from the registry.  Now the real line is registered, and
    the head that contains it is a conflict: verified, never
    ``INTACT``, and reported by the deep scan."""
    line = _heated(small_device, start=8, n=8)
    _forge_head(small_device, 0, 4)
    assert [(r.start, r.n_blocks) for r in small_device.scan_lines()] == \
        [(line.start, line.n_blocks)]
    assert [(r.start, r.n_blocks) for r in small_device.line_conflicts] == \
        [(0, 16)]
    assert small_device.line_of_block(3) is None
    assert small_device.line_of_block(9).start == 8
    verdicts = {r.start: r.status for r in small_device.verify_all()}
    assert verdicts[8] is VerifyStatus.INTACT
    assert verdicts[0] is not VerifyStatus.INTACT
    report = deep_scan(small_device)
    assert report.unparseable_lines == [8]  # its block 1 is no inode
    assert [r.start for r in report.conflicts] == [0]
    assert [r.start for r in report.tampered_lines] == [0]


def test_nested_forged_heads_keep_only_the_innermost(small_device):
    """Heads at 0 (+32), 16 (+16) and 16's interior line at 24 (+8):
    only the head that contains no other head is registered."""
    line = _heated(small_device, start=24, n=8)
    _forge_head(small_device, 0, 5)
    _forge_head(small_device, 16, 4)
    assert [r.start for r in small_device.scan_lines()] == [line.start]
    assert [r.start for r in small_device.line_conflicts] == [0, 16]
    assert [(r.start, r.status is VerifyStatus.INTACT)
            for r in small_device.verify_all()] == \
        [(0, False), (16, False), (24, True)]


def test_a_rescan_forgets_old_conflicts(small_device):
    _heated(small_device, start=8, n=8)
    _forge_head(small_device, 0, 4)
    small_device.scan_lines()
    assert [r.start for r in small_device.line_conflicts] == [0]
    small_device.bad_blocks.add(0)  # the next scan skips the forged head
    assert [r.start for r in small_device.scan_lines()] == [8]
    assert small_device.line_conflicts == ()


_FORGE_BLOCKS = 64


def _real_lines(drawn):
    """Aligned lines from drawn ``(size, block)`` pairs: each at the
    aligned start at or below ``block``, skipping any that overlaps a
    line already placed."""
    lines, used = [], set()
    for size, block in drawn:
        start = block // size * size
        extent = set(range(start, start + size))
        if not extent & used:
            lines.append((start, size))
            used |= extent
    return sorted(lines)


def test_no_forged_head_steers_discovery(small_device):
    """ROADMAP 23(b)'s property on 64-block devices: real aligned lines,
    then k CRC-valid forged heads at any start with any size that fits,
    aligned or not.  Every real line the forger did not overwrite is
    registered and verifies INTACT, every forged head reads otherwise,
    no registered line holds another head, and nothing raises out of
    scan_lines, verify_all, deep_scan or fsck.  The devices run on
    ``small_device``'s engine, so ``test_device_scalar.py`` re-collects
    this on the scalar one."""
    span_engine = small_device.config.span_engine

    # the scalar engine pays per dot, so its run draws fewer devices
    @settings(max_examples=25 if span_engine else 6, deadline=None)
    @given(drawn=st.lists(st.tuples(st.sampled_from([2, 4, 8, 16]),
                                    st.integers(0, _FORGE_BLOCKS - 1)),
                          max_size=5),
           claims=st.lists(st.tuples(st.integers(0, _FORGE_BLOCKS - 1),
                                     st.integers(1, 6), st.booleans()),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 16))
    def check(drawn, claims, seed):
        device = SERODevice.create(
            _FORGE_BLOCKS, MediumConfig(seed=seed),
            config=DeviceConfig(span_engine=span_engine))
        fs = SeroFS.format(device)
        lines = _real_lines(drawn)
        for start, n in lines:
            for pba in range(start + 1, start + n):
                device.write_block(pba, bytes([start]) * BLOCK_SIZE)
            device.heat_line(start, n)
        forged = {}
        for block, log2, aligned in claims:
            # an aligned claim is the one that can contain a real line
            start = block >> log2 << log2 if aligned else block
            if start + (1 << log2) > _FORGE_BLOCKS:
                log2 = max((_FORGE_BLOCKS - start).bit_length() - 1, 1)
            forged.setdefault(start, log2)
        for start, log2 in forged.items():
            _forge_head(device, start, log2)

        registered = {r.start: r.n_blocks for r in device.scan_lines()}
        heads = sorted(registered) + [r.start for r in device.line_conflicts]
        for start, n in registered.items():
            assert not [h for h in heads if start < h < start + n]
        verdicts = {r.start: r.status for r in device.verify_all()}
        for start, n in lines:
            if any(start <= f < start + n for f in forged):
                continue  # the forger wrote over this line
            assert registered.get(start) == n
            assert verdicts[start] is VerifyStatus.INTACT
        for start in forged:
            assert device.verify_line(start).status is not VerifyStatus.INTACT
            if start in verdicts:
                assert verdicts[start] is not VerifyStatus.INTACT
        report = deep_scan(device)
        assert {f.line_start for f in report.recovered} | \
            set(report.unparseable_lines) == set(registered)
        errors = fsck(fs).errors
        for record in device.line_conflicts:
            assert any(f"line head {record.start} " in e for e in errors)

    check()
