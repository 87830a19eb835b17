"""Span-engine tests: scalar<->span equivalence, statistics and cost parity.

The vectorized span engine must be *protocol-equivalent* to the scalar
per-dot reference path:

* identical verdicts (ers cell states, verify_line statuses, scan_lines
  registries) on virgin, written, tampered and defective media;
* identical medium counters and scanner charges wherever the protocol
  is deterministic (no heated dots), and statistically identical
  (1/4)**rounds behaviour where it is not;
* scanner erb charges tied to the actual magnetic bit operations the
  medium performed (the ``bit_cost`` reconciliation).
"""

import math

import numpy as np
import pytest

import repro.crypto.crc as crc_mod
import repro.crypto.manchester as man_mod
from repro.device.bitops import BitOps
from repro.device.scanner import Scanner
from repro.device.sector import E_CELLS, E_REGION_DOTS, ElectricalPayload
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.device.timing import CostAccount, TimingModel
from repro.fs.fsck import deep_scan
from repro.fs.lfs import SeroFS
from repro.medium.geometry import MediumGeometry, geometry_for_blocks
from repro.medium.medium import MediumConfig, PatternedMedium

PAYLOAD = bytes(range(256)) * 2


def _medium(seed=2008, **kwargs) -> PatternedMedium:
    geom = MediumGeometry(cols=4096, rows=4, dots_per_block=64)
    return PatternedMedium(geom, MediumConfig(seed=seed, **kwargs))


def _device_pair(total_blocks=64, medium_config=None, **cfg):
    """Identically-seeded devices, one scalar and one span."""
    scalar = SERODevice.create(total_blocks, medium_config=medium_config,
                               config=DeviceConfig(span_engine=False, **cfg))
    span = SERODevice.create(total_blocks, medium_config=medium_config,
                             config=DeviceConfig(span_engine=True, **cfg))
    return scalar, span


def _heated_line(device, start=0, n=4):
    for pba in range(start + 1, start + n):
        device.write_block(pba, PAYLOAD)
    return device.heat_line(start, n, timestamp=7)


# -- erb_span protocol semantics --------------------------------------------


def test_erb_span_healthy_dots_all_pass_with_exact_counters():
    medium = _medium()
    ops = BitOps(medium)
    for rounds in (1, 2, 3):
        before = dict(medium.counters)
        verdict = ops.erb_span(0, 512, rounds=rounds)
        assert not verdict.any()
        assert medium.counters["mrb"] - before["mrb"] == 512 * (1 + 2 * rounds)
        assert medium.counters["mwb"] - before["mwb"] == 512 * 2 * rounds
        assert medium.counters["heat"] == before["heat"]


def test_erb_span_restores_magnetisation():
    medium = _medium()
    bits = [i % 2 for i in range(256)]
    medium.write_mag_span(0, bits)
    medium.heat_span(64, 96)
    BitOps(medium).erb_span(0, 256, rounds=2)
    readback = medium.read_mag_span(0, 64)
    assert readback.tolist() == bits[:64]


@pytest.mark.parametrize("rounds,lo,hi", [
    (1, 0.22, 0.28),   # miss rate 1/4
    (2, 0.045, 0.080),  # 1/16
    (3, 0.008, 0.024),  # 1/64
])
def test_erb_span_reproduces_miss_rate(rounds, lo, hi):
    medium = _medium(seed=99)
    medium.heat_span(0, 4096)
    misses = (~BitOps(medium).erb_span(0, 4096, rounds=rounds)).sum()
    assert lo < misses / 4096 < hi


def test_erb_span_heated_counters_respect_early_exit():
    medium = _medium(seed=5)
    medium.heat_span(0, 4096)
    rounds = 2
    before = dict(medium.counters)
    BitOps(medium).erb_span(0, 4096, rounds=rounds)
    mrb = medium.counters["mrb"] - before["mrb"]
    mwb = medium.counters["mwb"] - before["mwb"]
    # every dot: 1 initial read; then between 1 verification (fail
    # immediately) and 2*rounds (pass everything)
    assert 4096 * 2 <= mrb <= 4096 * (1 + 2 * rounds)
    assert mrb == mwb + 4096
    # expected verifies per heated dot: verification k runs iff the k
    # previous ones passed, so E = 1 + 1/2 + 1/4 + 1/8 = 1.875
    assert mwb / 4096 == pytest.approx(1.875, rel=0.05)


def test_erb_span_defective_dots_read_heated_deterministically():
    medium = _medium(seed=11, switching_sigma=0.5, write_field=1.0)
    assert medium._k_scale is not None
    defective = np.flatnonzero(
        (medium._k_scale > medium.config.write_field)
        & (medium._sharpness >= 0.5))[:64]
    assert defective.size
    before = dict(medium.counters)
    verdict = BitOps(medium).erb_at(defective, rounds=2)
    assert verdict.all()
    # a defective dot fails the first verification: 2 reads, 1 write
    assert medium.counters["mrb"] - before["mrb"] == 2 * defective.size
    assert medium.counters["mwb"] - before["mwb"] == defective.size


def test_erb_span_matches_scalar_erb_per_dot_when_deterministic():
    scalar_medium = _medium()
    span_medium = _medium()
    scalar_ops = BitOps(scalar_medium)
    verdicts = [scalar_ops.erb(i, rounds=2) for i in range(128)]
    span_verdicts = BitOps(span_medium).erb_span(0, 128, rounds=2)
    assert [v == "H" for v in verdicts] == span_verdicts.tolist()
    assert scalar_medium.counters == span_medium.counters


def test_erb_span_validation():
    medium = _medium()
    ops = BitOps(medium)
    with pytest.raises(ValueError):
        ops.erb_span(0, 8, rounds=0)
    from repro.errors import DotAddressError
    with pytest.raises(DotAddressError):
        ops.erb_span(0, medium.geometry.total_dots + 1)
    with pytest.raises(DotAddressError):
        ops.erb_at([-1])
    assert ops.erb_span(5, 5).size == 0


# -- heat_span vectorization -------------------------------------------------


def test_heat_span_vectorized_matches_scalar():
    vec = _medium()
    ref = _medium()
    pattern = np.zeros(E_REGION_DOTS, dtype=bool)
    pattern[::3] = True
    vec.heat_span(0, E_REGION_DOTS, pattern, vectorized=True)
    ref.heat_span(0, E_REGION_DOTS, pattern, vectorized=False)
    assert np.array_equal(vec._sharpness, ref._sharpness)
    assert np.array_equal(vec._mag, ref._mag)
    assert vec.counters == ref.counters


def test_heat_span_collateral_forces_scalar_path():
    geom = MediumGeometry(cols=64, rows=4, dots_per_block=16)
    vec = PatternedMedium(geom, MediumConfig(collateral_heating=True))
    ref = PatternedMedium(geom, MediumConfig(collateral_heating=True))
    center = geom.dot_index(2, 32)
    # even with vectorized requested, collateral heating must take the
    # per-dot path so neighbours receive their attenuated pulses
    vec.heat_span(center, center + 2, vectorized=True)
    ref.heat_dot(center)
    ref.heat_dot(center + 1)
    assert vec.is_heated(center)
    assert np.array_equal(vec._sharpness, ref._sharpness)
    assert vec.counters == ref.counters


def test_snapshot_states_vectorized():
    medium = _medium()
    medium.write_mag_span(0, [1, 0, 1, 1, 0, 0, 1, 0])
    medium.heat_span(2, 4)
    states = medium.snapshot_states(0, 8)
    assert states == ["1", "0", "H", "H", "0", "0", "1", "0"]
    assert all(isinstance(s, str) for s in states)


# -- device-level scalar<->span equivalence ----------------------------------


def test_ers_block_virgin_exact_equivalence():
    scalar, span = _device_pair(16)
    s_states, s_bits = scalar.ers_block(3)
    v_states, v_bits = span.ers_block(3)
    assert s_states == v_states
    assert s_bits == v_bits
    assert scalar.medium.counters == span.medium.counters
    assert scalar.account.op_counts == span.account.op_counts
    assert scalar.account.elapsed == pytest.approx(span.account.elapsed)


def test_written_line_equivalent_payload_and_verdicts():
    scalar, span = _device_pair(64)
    rec_s = _heated_line(scalar)
    rec_v = _heated_line(span)
    assert rec_s.line_hash == rec_v.line_hash
    p_s, t_s, v_s = scalar._ers_payload(0)
    p_v, t_v, v_v = span._ers_payload(0)
    assert p_s == p_v
    assert (t_s, v_s) == (t_v, v_v) == ([], False)
    assert scalar.verify_line(0).status is VerifyStatus.INTACT
    assert span.verify_line(0).status is VerifyStatus.INTACT


def test_probe_block_equivalent_verdicts_and_charges():
    scalar, span = _device_pair(64)
    _heated_line(scalar)
    _heated_line(span)
    # drop the heat_line charges: their ers retry counts are
    # RNG-dependent; probing itself must charge identically
    scalar.account.reset()
    span.account.reset()
    for pba in range(16):
        assert scalar.probe_block_electrical(pba) == \
            span.probe_block_electrical(pba)
    # probing charges the fixed protocol cost in both modes
    assert scalar.account.by_category["erb"] == \
        pytest.approx(span.account.by_category["erb"])


def test_tampered_line_detected_in_both_modes():
    for device in _device_pair(64):
        _heated_line(device)
        start, _ = device.geometry.block_span(0)
        heated = device.medium.image_heated()[start:start + E_REGION_DOTS]
        # make the first written cell illegal (HH) by heating its twin
        cells = heated.reshape(-1, 2)
        cell = int(np.flatnonzero(cells.sum(axis=1) == 1)[0])
        twin = start + 2 * cell + (0 if cells[cell, 1] else 1)
        device.medium.heat_dot(twin)
        result = device.verify_line(0)
        assert result.status is VerifyStatus.CELL_TAMPERED
        assert cell in result.tampered_cells


def test_bulk_erase_detected_in_both_modes():
    for device in _device_pair(64):
        _heated_line(device)
        device.medium.bulk_erase()
        assert device.verify_line(0).status is VerifyStatus.UNREADABLE


def test_defective_media_equivalent_verdicts():
    mcfg = MediumConfig(switching_sigma=0.5, write_field=1.0, seed=3)
    scalar, span = _device_pair(32, medium_config=mcfg)
    scalar.format()
    span.format()
    assert scalar.bad_blocks == span.bad_blocks
    assert scalar.fragile_blocks == span.fragile_blocks
    probed = [pba for pba in range(32) if pba not in scalar.bad_blocks][:8]
    for pba in probed:
        assert scalar.probe_block_electrical(pba) == \
            span.probe_block_electrical(pba)


def test_scan_lines_equivalent_recovery():
    scalar, span = _device_pair(64)
    for device in (scalar, span):
        _heated_line(device, start=0, n=4)
        _heated_line(device, start=8, n=8)
    recovered_s = scalar.scan_lines()
    recovered_v = span.scan_lines()
    assert [(r.start, r.n_blocks, r.timestamp, r.line_hash)
            for r in recovered_s] == \
        [(r.start, r.n_blocks, r.timestamp, r.line_hash)
         for r in recovered_v]


def test_ers_payload_packbits_roundtrip():
    _, span = _device_pair(64)
    record = _heated_line(span)
    payload, tampered, virgin = span._ers_payload(0)
    assert not tampered and not virgin
    meta = ElectricalPayload.unpack(payload)
    assert meta.line_hash == record.line_hash
    assert meta.timestamp == record.timestamp


def test_deep_scan_reports_cost():
    fs = SeroFS.format(SERODevice.create(256))
    fs.create("/keep", b"evidence " * 40)
    fs.heat_file("/keep")
    report = deep_scan(fs.device)
    assert report.intact_count == 1
    assert report.blocks_scanned == 256
    assert report.device_seconds > 0.0


# -- cost accounting reconciliation ------------------------------------------


@pytest.mark.parametrize("span_engine", [False, True])
def test_erb_charges_tie_to_medium_counters(span_engine):
    device = SERODevice.create(
        16, config=DeviceConfig(span_engine=span_engine))
    rounds = device.config.erb_rounds
    before = dict(device.medium.counters)
    device.ers_block(3)
    erb_ops = device.account.op_counts["erb"]
    # a virgin block retries every cell to the limit
    assert erb_ops == 2 * E_CELLS * (1 + device.config.ers_cell_retries)
    # healthy dots run the full 1 + 4*rounds bit operations per erb
    mrb = device.medium.counters["mrb"] - before["mrb"]
    mwb = device.medium.counters["mwb"] - before["mwb"]
    assert mrb + mwb == erb_ops * device.bitops.bit_cost(rounds)
    expected_time = math.ceil(erb_ops / device.timing.parallelism) * \
        device.timing.t_erb_for(rounds)
    assert device.account.by_category["erb"] == pytest.approx(expected_time)


@pytest.mark.parametrize("span_engine", [False, True])
def test_erb_charges_bound_heated_medium_counters(span_engine):
    device = SERODevice.create(
        64, config=DeviceConfig(span_engine=span_engine))
    _heated_line(device)
    device.account.reset()
    before = dict(device.medium.counters)
    device.ers_block(0)
    erb_ops = device.account.op_counts["erb"]
    mrb = device.medium.counters["mrb"] - before["mrb"]
    mwb = device.medium.counters["mwb"] - before["mwb"]
    # heated dots exit the sequence early, so the scanner's protocol
    # charge upper-bounds the magnetic work the medium actually did
    assert mrb + mwb <= erb_ops * device.bitops.bit_cost(device.config.erb_rounds)
    assert mrb + mwb >= erb_ops * 3  # >= 2 reads + 1 write per erb


def test_t_erb_for_matches_bit_cost():
    timing = TimingModel()
    ops = BitOps(PatternedMedium(MediumGeometry(cols=16, rows=1,
                                                dots_per_block=16)))
    for rounds in (1, 2, 3, 5):
        assert timing.t_erb_for(rounds) == pytest.approx(
            ops.bit_cost(rounds) * timing.t_mrb)
    assert timing.t_erb_for(1) == pytest.approx(timing.t_erb)
    with pytest.raises(ValueError):
        timing.t_erb_for(0)


# -- scanner seek regression (simplified branch) ------------------------------


def _scanner():
    from repro.device.sector import DOTS_PER_BLOCK

    geom = geometry_for_blocks(64, DOTS_PER_BLOCK)
    return Scanner(geometry=geom, timing=TimingModel(), account=CostAccount())


def test_seek_sequential_continuation_is_free():
    scanner = _scanner()
    first = scanner.seek_to_block(1)
    assert first > 0.0
    assert all(scanner.seek_to_block(pba) == 0.0 for pba in range(2, 10))
    assert scanner.account.op_counts.get("seek", 0) == 1  # only the first


def test_seek_repeated_block_charges_once():
    scanner = _scanner()
    first = scanner.seek_to_block(40)
    assert first > 0.0
    assert scanner.seek_to_block(40) == 0.0
    assert scanner.seek_to_block(40) == 0.0
    assert scanner.account.elapsed == pytest.approx(first)


def test_seek_random_access_charges_expected_time():
    scanner = _scanner()
    scanner.seek_to_block(0)
    expected = 0.0
    for pba in (40, 3, 63, 22):
        x, y = scanner._field_position(pba)
        distance = max(abs(x - scanner._x), abs(y - scanner._y))
        expected += scanner.timing.seek_time(distance)
        assert scanner.seek_to_block(pba) == pytest.approx(
            scanner.timing.seek_time(distance))
    assert scanner.account.by_category["seek"] == pytest.approx(expected)


@pytest.mark.parametrize("prior", [None, "same", "adjacent", "far"])
@pytest.mark.parametrize("first,count", [(5, 0), (5, 1), (5, 2), (20, 8),
                                         (56, 8)])
def test_run_seek_is_the_per_block_loop(prior, first, count):
    """From any sled state, one run seek charges what a seek per block
    of the run charges and leaves the sled where the loop leaves it."""
    run, loop = _scanner(), _scanner()
    before = {None: None, "same": first, "adjacent": first - 1,
              "far": (first + 31) % 64}[prior]
    for scanner in (run, loop):
        if before is not None:
            scanner.seek_to_block(before)
    charged = run.seek_to_run(first, count)
    looped = sum(loop.seek_to_block(pba)
                 for pba in range(first, first + count))
    assert charged == looped
    assert run.account.by_category == loop.account.by_category
    assert run.account.op_counts == loop.account.op_counts
    assert (run._last_block, run._x, run._y) == \
        (loop._last_block, loop._x, loop._y)


def _record_seeks(device, log):
    """Log each ``_mrs_span`` and ``write_block_run`` call the device
    makes as ``(verb, first, seeks)``, where ``seeks`` counts the
    outermost scanner seek calls made inside it."""
    scanner = device.scanner
    seeks = [0]
    depth = [0]
    for verb in ("seek_to_block", "seek_to_run"):
        def seek(*args, _real=getattr(scanner, verb)):
            seeks[0] += depth[0] == 0
            depth[0] += 1
            try:
                return _real(*args)
            finally:
                depth[0] -= 1
        setattr(scanner, verb, seek)
    for verb in ("_mrs_span", "write_block_run"):
        def call(first, *rest, _verb=verb, _real=getattr(device, verb)):
            seeks[0] = 0
            result = _real(first, *rest)
            log.append((_verb, first, seeks[0]))
            return result
        setattr(device, verb, call)


def test_one_seek_call_per_run_read_and_run_write():
    """``write_block_run``, ``read_block_run``, a seal's read-back and
    the batched audit's data spans each move the sled with one seek
    call, however long the run."""
    device = SERODevice.create(64)
    log = []
    _record_seeks(device, log)
    for start in (8, 16):
        device.write_block_run(start + 1, [bytes([start]) * 512] * 7)
        device.heat_line(start, 8, timestamp=start)
    device.read_block_run(9, 7)
    assert [r.status for r in device.verify_lines([8, 16])] == \
        [VerifyStatus.INTACT] * 2
    assert log == [("write_block_run", 9, 1), ("_mrs_span", 9, 1),
                   ("write_block_run", 17, 1), ("_mrs_span", 17, 1),
                   ("_mrs_span", 9, 1),
                   ("_mrs_span", 9, 1), ("_mrs_span", 17, 1)]


# -- crypto scalar<->vectorized equivalence -----------------------------------


@pytest.mark.parametrize("n", [0, 1, 7, 8, 13, 64, 256, 536, 537])
def test_crc32_fast_path_matches_scalar(n):
    rng = np.random.default_rng(n)
    data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    seed = int(rng.integers(0, 1 << 32))
    for start in (0, seed):
        reference = crc_mod._crc32_scalar(data, start ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
        assert crc_mod.crc32(data, start) == reference


@pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 14, 255])
def test_crc16_fast_path_matches_scalar(n):
    rng = np.random.default_rng(n)
    data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    assert crc_mod.crc16_ccitt(data) == crc_mod._crc16_scalar(data, 0xFFFF)


def test_manchester_fast_paths_match_scalar():
    rng = np.random.default_rng(42)
    for n in (0, 1, 2, 16, 256):
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        vec_pattern = man_mod.encode_bytes(data)
        vec_decoded = man_mod.decode_bytes(vec_pattern)
        vec_result = man_mod.decode_pattern(vec_pattern)
        # the per-cell definitions, called directly (no pin since 7.0)
        ref_pattern = man_mod.encode_bits(man_mod.bytes_to_bits(data))
        assert list(vec_pattern) == ref_pattern
        ref_result = man_mod._decode_pattern_scalar(ref_pattern)
        assert vec_decoded == ref_result.to_bytes() == data
        assert vec_result.bits == ref_result.bits
        assert vec_result.tampered_cells == ref_result.tampered_cells
        assert vec_result.unused_cells == ref_result.unused_cells


def test_manchester_vectorized_flags_tamper_and_unused():
    pattern = np.asarray(man_mod.encode_bytes(b"\xa5"), dtype=bool)
    pattern[0] = True   # cell 0 was UH (bit 1) -> HH
    pattern[2] = pattern[3] = False  # cell 1 -> UU
    result = man_mod.decode_pattern(pattern)
    assert result.tampered_cells == [0]
    assert result.unused_cells == [1]
    assert result.bits[0] is None and result.bits[1] is None
    assert result.bits[2:] == [1, 0, 0, 1, 0, 1]
