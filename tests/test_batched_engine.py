"""Scalar <-> batched equivalence of the format/physics/audit engine.

PR 1 proved the span engine's per-dot electrical protocol equivalent to
the scalar reference; this suite does the same for the batched layers
on top of it: the vectorized format-time defect scan, the
:class:`FilmEnsemble` physics sweeps, the level-at-a-time venti builds
and the batched line-verification sweep.
"""

import numpy as np
import pytest

from twin_racks import device_rack
from repro.api.fleet import FleetStore
from repro.api.store import TamperEvidentStore
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.integrity.fossil import FossilizedIndex
from repro.integrity.venti import VentiStore
from repro.medium.defects import defective_dots_in_block, scan_for_defects
from repro.medium.geometry import MediumGeometry, geometry_for_blocks
from repro.medium.medium import MediumConfig, PatternedMedium
from repro.physics.anisotropy import calibrated_model
from repro.physics.annealing import FilmEnsemble, FilmState, anneal, anneal_series, destruction_temperature
from repro.physics.constants import AS_GROWN_K
from repro.physics.torque import measure_anisotropy, measure_anisotropy_batch
from repro.physics.xrd import (
    high_angle_scan,
    high_angle_scan_set,
    low_angle_scan,
    low_angle_scan_set,
)

PAYLOAD = bytes(range(256)) * 2


def _defect_medium(seed: int = 11) -> PatternedMedium:
    geom = MediumGeometry(cols=64 * 24, rows=6, dots_per_block=96)
    return PatternedMedium(geom, MediumConfig(switching_sigma=0.35,
                                              write_field=1.0, seed=seed))


# -- format: scan_for_defects --------------------------------------------------


def test_defect_scan_scalar_vectorized_identical():
    scalar = scan_for_defects(_defect_medium(), tolerance=1,
                              e_region_dots=48, ecc_word_bits=24,
                              vectorized=False)
    batched = scan_for_defects(_defect_medium(), tolerance=1,
                               e_region_dots=48, ecc_word_bits=24,
                               vectorized=True)
    assert batched.bad_blocks == scalar.bad_blocks
    assert batched.fragile_blocks == scalar.fragile_blocks
    assert batched.defective_dots == scalar.defective_dots
    assert batched.scanned_blocks == scalar.scanned_blocks


def test_defect_scan_counters_identical():
    # Both paths issue the same per-block span I/O sequence.
    scalar_medium = _defect_medium()
    batched_medium = _defect_medium()
    scan_for_defects(scalar_medium, vectorized=False)
    scan_for_defects(batched_medium, vectorized=True)
    assert batched_medium.counters == scalar_medium.counters


def test_defect_scan_ecc_word_rule():
    # Two defects inside one codeword make a block bad regardless of
    # the total-count tolerance, in both paths.
    for vectorized in (False, True):
        report = scan_for_defects(_defect_medium(), tolerance=10 ** 6,
                                  ecc_word_bits=12, vectorized=vectorized)
        counts = {}
        medium = _defect_medium()
        for pba in range(medium.geometry.total_blocks):
            start, end = medium.geometry.block_span(pba)
            defects = np.flatnonzero(medium.defect_map(start, end))
            words = set()
            doubled = False
            for offset in defects:
                word = int(offset) // 12
                if word in words:
                    doubled = True
                words.add(word)
            counts[pba] = doubled
        assert report.bad_blocks == {pba for pba, d in counts.items() if d}


def test_defective_dots_in_block_matches_scalar_ground_truth():
    medium = _defect_medium()
    medium.heat_dot(5)  # heated dots must not count as defective
    for pba in range(medium.geometry.total_blocks):
        start, end = medium.geometry.block_span(pba)
        expected = [i for i in range(start, end)
                    if not medium.is_writable(i) and not medium.is_heated(i)]
        assert defective_dots_in_block(medium, pba) == expected


# -- physics: FilmEnsemble / sweeps --------------------------------------------


def test_film_ensemble_anneal_matches_looped_anneal():
    temps = np.linspace(25.0, 700.0, 53)
    ensemble = FilmEnsemble.fresh(temps.size).anneal(temps, 1800.0)
    looped = [anneal(FilmState(), float(t), 1800.0) for t in temps]
    np.testing.assert_allclose(ensemble.sharpness,
                               [s.sharpness for s in looped], rtol=1e-6)
    np.testing.assert_allclose(ensemble.crystalline_fraction,
                               [s.crystalline_fraction for s in looped],
                               rtol=1e-6, atol=1e-12)


def test_film_ensemble_multi_step_history():
    ensemble = FilmEnsemble.fresh(3)
    ensemble.anneal([100.0, 400.0, 700.0], 600.0)
    ensemble.anneal(300.0, 60.0)
    looped = []
    for t in (100.0, 400.0, 700.0):
        state = anneal(FilmState(), t, 600.0)
        looped.append(anneal(state, 300.0, 60.0))
    np.testing.assert_allclose(ensemble.sharpness,
                               [s.sharpness for s in looped], rtol=1e-6)
    states = ensemble.states()
    for state, reference in zip(states, looped):
        assert state.thermal_history == pytest.approx(
            reference.thermal_history)
    assert bool(ensemble.is_destroyed[2]) == looped[2].is_destroyed


def test_film_ensemble_rejects_bad_inputs():
    ensemble = FilmEnsemble.fresh(2)
    with pytest.raises(ValueError):
        ensemble.anneal([100.0, 200.0, 300.0], 60.0)
    with pytest.raises(ValueError):
        ensemble.anneal(-300.0, 60.0)
    with pytest.raises(ValueError):
        ensemble.anneal(100.0, -1.0)


def test_anneal_series_vectorized_matches_scalar():
    temps = [25.0, 300.0, 500.0, 650.0, 700.0]
    fast = anneal_series(temps, vectorized=True)
    slow = anneal_series(temps, vectorized=False)
    assert [s.sharpness for s in fast] == \
        pytest.approx([s.sharpness for s in slow], rel=1e-6)
    for fast_state, slow_state in zip(fast, slow):
        assert fast_state.thermal_history == \
            pytest.approx(slow_state.thermal_history)


def test_destruction_temperature_sweep_matches_scalar():
    durations = np.array([1e-4, 1.0, 60.0, 1800.0])
    sweep = destruction_temperature(duration_s=durations)
    scalar = [destruction_temperature(duration_s=float(d)) for d in durations]
    np.testing.assert_allclose(sweep, scalar, rtol=1e-12)
    assert isinstance(destruction_temperature(), float)


def test_measure_anisotropy_batch_matches_scalar():
    model = calibrated_model(AS_GROWN_K)
    ensemble = FilmEnsemble.fresh(24).anneal(
        np.linspace(25.0, 700.0, 24), 1800.0)
    k_true = model.k_eff_array(ensemble.sharpness,
                               ensemble.crystalline_fraction)
    batch = measure_anisotropy_batch(k_true)
    scalar = [measure_anisotropy(float(k)).k_measured for k in k_true]
    np.testing.assert_allclose(batch, scalar, rtol=1e-8)


def test_k_eff_array_matches_scalar():
    model = calibrated_model(AS_GROWN_K)
    sharp = np.linspace(0.0, 1.0, 11)
    cf = np.linspace(0.0, 0.5, 11)
    batch = model.k_eff_array(sharp, cf)
    scalar = [model.k_eff(float(s), float(c)) for s, c in zip(sharp, cf)]
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)
    with pytest.raises(ValueError):
        model.k_eff_array(np.array([1.5]))


def test_xrd_scan_sets_match_scalar_scans():
    ensemble = FilmEnsemble.fresh(9).anneal(
        np.linspace(25.0, 700.0, 9), 1800.0)
    states = ensemble.states()
    low = low_angle_scan_set(ensemble)
    high = high_angle_scan_set(ensemble)
    assert len(low) == len(high) == len(states)
    for i, state in enumerate(states):
        np.testing.assert_allclose(low.scan(i).intensity,
                                   low_angle_scan(state).intensity,
                                   rtol=1e-9)
        np.testing.assert_allclose(high.scan(i).intensity,
                                   high_angle_scan(state).intensity,
                                   rtol=1e-9)
    assert low.scans()[0].peak_two_theta(6.0, 10.0) == \
        pytest.approx(low_angle_scan(states[0]).peak_two_theta(6.0, 10.0))


# -- audit: venti / verify_lines ----------------------------------------------


def _store(batched: bool, total_blocks: int = 128) -> VentiStore:
    device = SERODevice.create(total_blocks)
    return VentiStore(device=device, arena_start=0,
                      arena_blocks=total_blocks, batched=batched)


def test_venti_batched_build_byte_identical():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=9000, dtype=np.uint8).tobytes()
    sequential = _store(batched=False)
    batched = _store(batched=True)
    root_seq = sequential.put_stream(data)
    root_bat = batched.put_stream(data)
    assert root_bat == root_seq
    assert batched._index == sequential._index  # same scores, same PBAs
    assert batched.blocks_used() == sequential.blocks_used()
    assert batched.read_stream(root_bat) == data
    assert batched.verify_tree(root_bat) == []


def test_venti_batched_dedup_within_and_across_levels():
    data = b"\xab" * (3 * 509)  # three identical leaves
    sequential = _store(batched=False)
    batched = _store(batched=True)
    assert batched.put_stream(data) == sequential.put_stream(data)
    assert batched.blocks_used() == sequential.blocks_used()
    # a repeated stream adds nothing
    used = batched.blocks_used()
    batched.put_stream(data)
    assert batched.blocks_used() == used


def test_venti_batched_empty_stream():
    sequential = _store(batched=False)
    batched = _store(batched=True)
    assert batched.put_stream(b"") == sequential.put_stream(b"")
    assert batched.read_stream(batched.put_stream(b"")) == b""


def test_venti_snapshot_and_audit_batched():
    store = _store(batched=True)
    root = store.snapshot("friday", b"ledger " * 100, timestamp=42)
    audit = store.audit()
    assert len(audit) == len(store.sealed_scores)
    assert all(r.status is VerifyStatus.INTACT for r in audit.values())
    assert store.verify_sealed(root).status is VerifyStatus.INTACT


def test_verify_lines_matches_verify_line():
    def build(span: bool) -> SERODevice:
        device = SERODevice.create(
            32, config=DeviceConfig(span_engine=span))
        for start in (0, 8, 16):
            for pba in range(start + 1, start + 8):
                device.write_block(pba, PAYLOAD)
            device.heat_line(start, 8, timestamp=start)
        return device

    device = build(True)
    starts = [rec.start for rec in device.heated_lines]
    batched = device.verify_lines(starts)
    reference = [build(True).verify_line(s) for s in starts]
    for got, want in zip(batched, reference):
        assert got.status is want.status is VerifyStatus.INTACT
        assert got.stored_hash == want.stored_hash
        assert got.computed_hash == want.computed_hash
    # scalar devices fall back to the per-line loop with equal verdicts
    scalar = build(False)
    for result in scalar.verify_lines([rec.start for rec in scalar.heated_lines]):
        assert result.status is VerifyStatus.INTACT


def test_verify_lines_simulated_cost_matches_sequential():
    # Batched verification replays the sequential protocol's scanner
    # charge order: seek charges are identical (deterministic) and the
    # erb transfer totals agree up to heated-cell retry randomness.
    def build() -> SERODevice:
        device = SERODevice.create(32)
        for start in (0, 8, 16):
            for pba in range(start + 1, start + 8):
                device.write_block(pba, PAYLOAD)
            device.heat_line(start, 8, timestamp=start)
        return device

    sequential = build()
    batched = build()
    sequential.account.reset()
    batched.account.reset()
    starts = [rec.start for rec in sequential.heated_lines]
    for start in starts:
        sequential.verify_line(start)
    batched.verify_lines(starts)
    seq_seek = sequential.account.by_category.get("seek", 0.0)
    bat_seek = batched.account.by_category.get("seek", 0.0)
    assert bat_seek == pytest.approx(seq_seek)
    assert batched.account.elapsed == pytest.approx(
        sequential.account.elapsed, rel=0.02)


def test_verify_lines_detects_tampering_and_virgin_blocks():
    device = SERODevice.create(32)
    for pba in range(1, 8):
        device.write_block(pba, PAYLOAD)
    device.heat_line(0, 8)
    # overwrite a data block behind the driver's back (insider attack)
    from repro.device.sector import encode_frame

    device.medium.write_mag_span(
        device.geometry.block_span(3)[0], encode_frame(3, b"\x00" * 512))
    results = device.verify_lines([0, 16])
    assert results[0].status is VerifyStatus.HASH_MISMATCH
    assert results[1].status is VerifyStatus.NOT_A_LINE
    assert device.verify_lines([]) == []


def test_write_block_run_equivalent_to_sequential_writes():
    run_device = SERODevice.create(16)
    seq_device = SERODevice.create(16)
    payloads = [bytes([i]) * 512 for i in range(5)]
    run_device.write_block_run(2, payloads)
    for i, payload in enumerate(payloads):
        seq_device.write_block(2 + i, payload)
    for i, payload in enumerate(payloads):
        assert run_device.read_block(2 + i) == payload
        assert seq_device.read_block(2 + i) == payload
    assert run_device.medium.counters["mwb"] == \
        seq_device.medium.counters["mwb"]


def test_fossil_audit_matches_per_node_verdicts():
    device = SERODevice.create(64)
    index = FossilizedIndex(device, arena_start=0, arena_blocks=64)
    rng = np.random.default_rng(3)
    while not index.sealed_nodes:
        index.insert(rng.bytes(32))
    audit = index.audit()
    assert set(audit) == set(index.sealed_nodes)
    for node_id, result in audit.items():
        assert result.status is device.verify_line(node_id).status


# -- fleet ---------------------------------------------------------------------


def test_fleet_format_and_audit():
    fleet = device_rack(blocks=16)
    formatted = fleet.format_devices()
    assert fleet.last_op.operation == "format_devices"
    assert len(formatted) == 3
    assert sum(report.blocks for report in formatted) == 48
    assert fleet.last_op.wall_seconds > 0

    for device in (store.device for store in fleet.members):
        start = next(s for s in range(0, 16, 2)
                     if s not in device.bad_blocks
                     and s not in device.fragile_blocks
                     and s + 1 not in device.bad_blocks)
        device.write_block(start + 1, PAYLOAD)
        device.heat_line(start, 2)
    audited = fleet.audit()
    assert fleet.last_op.operation == "audit"
    assert audited.lines_verified == 3
    assert audited.intact_count == 3
    assert not audited.tampered


def test_fleet_audit_flags_tampered_device():
    fleet = FleetStore([TamperEvidentStore.attach(SERODevice.create(16))
                        for _ in range(2)])
    fleet.format_devices()
    for store in fleet.members:
        store.device.write_block(1, PAYLOAD)
        store.device.heat_line(0, 2)
    victim = fleet.members[1].device
    from repro.device.sector import encode_frame

    victim.medium.write_mag_span(
        victim.geometry.block_span(1)[0], encode_frame(1, b"\xff" * 512))
    report = fleet.audit()
    assert report.intact_count == 1
    assert [r.label for r in report.tampered] == ["m1"]
    assert [rec.member for rec in report.member_records
            if rec.report.tamper_evident] == [1]
