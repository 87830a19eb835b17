"""Scalar <-> batched equivalence of the format/physics/audit engine.

PR 1 proved the span engine's per-dot electrical protocol equivalent to
the scalar reference; this suite does the same for the batched layers
on top of it: the vectorized format-time defect scan, the
:class:`FilmEnsemble` physics sweeps, the level-at-a-time venti builds
and the batched line-verification sweep.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twin_racks import device_rack
from repro.api.fleet import FleetStore
from repro.api.store import TamperEvidentStore
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.integrity.fossil import FossilizedIndex
from repro.integrity.venti import VentiStore
from repro.medium import defects
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


def _defect_medium(seed: int = 11,
                   write_field: float = 1.0) -> PatternedMedium:
    geom = MediumGeometry(cols=64 * 24, rows=6, dots_per_block=96)
    return PatternedMedium(geom, MediumConfig(switching_sigma=0.35,
                                              write_field=write_field,
                                              seed=seed))


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
    # Both paths apply the same dot operations (in chunks of blocks or
    # block by block), so the counter totals agree.
    scalar_medium = _defect_medium()
    batched_medium = _defect_medium()
    scan_for_defects(scalar_medium, vectorized=False)
    scan_for_defects(batched_medium, vectorized=True)
    assert batched_medium.counters == scalar_medium.counters


@pytest.mark.parametrize("write_field, tolerance", [(1.0, 1), (2.2, 10 ** 6)])
def test_defect_scan_short_codeword_and_wide_e_region(write_field, tolerance):
    # 96-dot blocks hold two whole 40-bit codewords plus a short 16-dot
    # one, and the 200-dot electrical region covers every block whole.
    # At write_field=2.2 only ~1.4 dots per block are defective, so the
    # per-word rule (tolerance disarmed) decides which blocks are bad.
    reports, media = [], []
    for vectorized in (False, True):
        medium = _defect_medium(write_field=write_field)
        reports.append(scan_for_defects(medium, tolerance=tolerance,
                                        e_region_dots=200, ecc_word_bits=40,
                                        vectorized=vectorized))
        media.append(medium)
    scalar, batched = reports
    assert batched.bad_blocks == scalar.bad_blocks
    assert batched.fragile_blocks == scalar.fragile_blocks
    assert batched.defective_dots == scalar.defective_dots
    assert media[1].counters == media[0].counters
    assert 0 < len(scalar.bad_blocks) and scalar.fragile_blocks


@pytest.mark.parametrize("vectorized", [False])
def test_defect_scan_bumps_epoch_three_times_per_block(vectorized):
    # Default geometry (4824-dot blocks, 72-bit codewords): in the
    # reference scan each block takes exactly three span writes, two
    # patterns and the erase.
    medium = SERODevice.create(16).medium
    before = medium.mutation_epoch
    scan_for_defects(medium, vectorized=vectorized)
    assert medium.mutation_epoch == before + 3 * medium.geometry.total_blocks


def test_defect_scan_bumps_epoch_three_times_per_chunk():
    # The default scan takes the same three span writes per chunk of
    # consecutive blocks, and per block in a chunk that holds a heated
    # dot (its noise draws keep the reference's block order).
    blocks = 64
    medium = SERODevice.create(blocks).medium
    chunk = defects._CHUNK_BYTES // medium.geometry.dots_per_block
    assert 1 < chunk < blocks
    chunks = math.ceil(blocks / chunk)
    before = medium.mutation_epoch
    scan_for_defects(medium)
    assert medium.mutation_epoch == before + 3 * chunks
    medium.heat_dot(medium.geometry.block_span(chunk)[0] + 5)
    before = medium.mutation_epoch
    scan_for_defects(medium)
    per_block = min(chunk, blocks - chunk)
    assert medium.mutation_epoch == before + 3 * (chunks - 1 + per_block)


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


#: SHA-256 of :func:`_golden_format_trace`, recorded on the per-block
#: format scan (three span writes and two span reads per block) before
#: the scan moved to chunks of blocks.  Every later scan must
#: reproduce it bit for bit.
_GOLDEN_FORMAT_SHA256 = \
    "b01f1669dfc3c98398a8e2be07996b074cbd90a86be115d5b0314d40ab7a2ead"


def _golden_format_trace() -> str:
    """Seeded ``SERODevice.format()`` on three devices: 64 default
    blocks with bad blocks and fragile-but-good ones, a prime 53-block
    device, and 53 blocks with heated dots in blocks 2, 3 and 31 (their
    reads draw noise).  Per device a digest of the bad and fragile
    sets, the scan's ``defective_dots`` (from an identically seeded
    twin scanned with the arguments ``format`` passes), the medium
    counters, the RNG state and SHA-256s of ``_mag`` and
    ``_sharpness``."""
    import hashlib
    import json

    from repro.device.sector import E_REGION_DOTS

    def build(blocks, seed, write_field, heated, blocks_per_row):
        device = SERODevice.create(
            blocks, MediumConfig(switching_sigma=0.1,
                                 write_field=write_field, seed=seed),
            blocks_per_row=blocks_per_row)
        for pba, offsets in heated:
            start, _end = device.geometry.block_span(pba)
            for offset in offsets:
                device.medium.heat_dot(start + offset)
        return device

    cases = [
        (64, 7, 1.38, (), 8),
        (53, 8, 1.4, (), 1),
        (53, 9, 1.38, ((2, (0, 1, 70)), (3, (4000, 4823)), (31, (7,))), 1),
    ]
    digest = hashlib.sha256()
    for case in cases:
        device, twin = build(*case), build(*case)
        device.format()
        report = scan_for_defects(
            twin.medium, tolerance=twin.config.defect_tolerance,
            e_region_dots=E_REGION_DOTS)
        assert report.bad_blocks == device.bad_blocks
        assert report.fragile_blocks == device.fragile_blocks
        medium = device.medium
        digest.update(repr((sorted(device.bad_blocks),
                            sorted(device.fragile_blocks),
                            report.defective_dots,
                            report.scanned_blocks)).encode())
        digest.update(json.dumps(medium.counters, sort_keys=True).encode())
        digest.update(json.dumps(medium._rng.bit_generator.state,
                                 sort_keys=True).encode())
        digest.update(hashlib.sha256(medium._mag.tobytes()).digest())
        digest.update(hashlib.sha256(medium._sharpness.tobytes()).digest())
    return digest.hexdigest()


def test_format_golden_trace():
    assert _golden_format_trace() == _GOLDEN_FORMAT_SHA256


#: SHA-256 of :func:`_golden_discovery_trace`, recorded on the
#: two-phase discovery scan (one electrical probe per block that is not
#: bad, line interiors included, a full ers of each block that
#: responds).  It was re-recorded when interiors began to be probed:
#: the probe counters, charges and RNG state moved, while the registry
#: part of the digest (records and block map) stayed as recorded on the
#: block-at-a-time scan that skipped them.  Every later scan must
#: reproduce it bit for bit.
_GOLDEN_DISCOVERY_SHA256 = \
    "bbb6e7ba4a9113eb34d3a97a22d77d3b36605c047cb478badcbafd8115a23056"


def _golden_discovery_trace() -> str:
    """Seeded ``scan_lines()`` on a 64- and a 256-block device, each
    scanned on the span and on the scalar engine (the devices are built
    on the span engine).  They hold aligned real lines of several
    sizes, a bad block outside any line, a real line whose head block
    is marked bad (so its interior is probed), a head with HH cells, a
    torn head (only its first half of cells burnt) and a copied head
    that names another line start.  Per run a digest of the recovered
    registry, the medium counters, the cost account and the RNG
    state."""
    import hashlib
    import json

    from repro.crypto.manchester import encode_bytes
    from repro.device.sector import E_CELLS, ElectricalPayload
    from repro.security.attacks import ewb_hash

    cases = [
        # blocks, seed, real lines, bad, bad head, HH head, torn, copy
        (64, 3, ((0, 2), (4, 4), (16, 16), (32, 8)), 60, (8, 8),
         (40, 4), 48, (56, 4)),
        (256, 5, ((0, 2), (16, 16), (64, 64), (192, 32), (228, 4)), 7,
         (32, 32), (8, 8), 224, (240, 4)),
    ]
    digest = hashlib.sha256()
    for span_engine in (True, False):
        for blocks, seed, lines, bad, bad_head, hh_head, torn, copy in cases:
            device = SERODevice.create(blocks, MediumConfig(seed=seed))
            data = np.random.default_rng(seed)

            def line(start, n_blocks):
                for pba in range(start + 1, start + n_blocks):
                    device.write_block(pba, data.bytes(512))
                device.heat_line(start, n_blocks, timestamp=start)

            for start, n_blocks in lines + (bad_head, hh_head):
                line(start, n_blocks)
            device.bad_blocks.update((bad, bad_head[0]))
            ewb_hash(device, hh_head[0], n_cells=3)
            payload = ElectricalPayload(line_start=torn, n_blocks_log2=2,
                                        line_hash=bytes(32)).pack()
            pattern = np.asarray(encode_bytes(payload), dtype=bool)
            pattern[E_CELLS:] = False
            start_dot = device.geometry.block_span(torn)[0]
            device.medium.heat_span(start_dot, start_dot + len(pattern),
                                    pattern)
            copied = ElectricalPayload(line_start=copy[1],
                                       n_blocks_log2=2,
                                       line_hash=bytes(32)).pack()
            device.ews_block(copy[0], copied)

            device.config.span_engine = span_engine
            recovered = device.scan_lines()
            account = device.account
            digest.update(repr([(r.start, r.n_blocks, r.line_hash.hex(),
                                 r.timestamp) for r in recovered]).encode())
            digest.update(repr(sorted(device._block_to_line.items()))
                          .encode())
            digest.update(json.dumps(device.medium.counters,
                                     sort_keys=True).encode())
            digest.update(account.elapsed.hex().encode())
            digest.update(repr(sorted(
                (k, v.hex()) for k, v in account.by_category.items()))
                .encode())
            digest.update(repr(sorted(account.op_counts.items())).encode())
            digest.update(json.dumps(device.medium._rng.bit_generator.state,
                                     sort_keys=True).encode())
    return digest.hexdigest()


def test_discovery_golden_trace():
    assert _golden_discovery_trace() == _GOLDEN_DISCOVERY_SHA256


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chunked_scan_matches_scalar_oracle(data):
    # Small geometries with the chunk budget shrunk to a few blocks, so
    # the block count lands on every side of a chunk boundary.  The
    # chunked scan's report, counters, final medium and RNG position
    # must equal the block-at-a-time reference's, heated dots included.
    chunk = data.draw(st.integers(1, 5), label="chunk")
    dpb = data.draw(st.integers(4, 48), label="dots_per_block")
    blocks = data.draw(st.sampled_from(sorted(
        {1, max(chunk - 1, 1), chunk, chunk + 1, 2 * chunk + 1, 3 * chunk})),
        label="blocks")
    sigma = data.draw(st.sampled_from([0.0, 0.2, 0.45]), label="sigma")
    write_field = data.draw(st.sampled_from([1.0, 1.15, 1.4]),
                            label="write_field")
    ecc_word_bits = data.draw(st.integers(1, dpb + 3), label="ecc_word_bits")
    e_region_dots = data.draw(st.integers(0, dpb + 3), label="e_region_dots")
    tolerance = data.draw(st.integers(0, 3), label="tolerance")
    heated = data.draw(st.lists(st.integers(0, blocks * dpb - 1),
                                max_size=4), label="heated_dots")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    budget = chunk * dpb + data.draw(st.integers(0, dpb - 1), label="slack")

    runs = []
    for vectorized in (False, True):
        medium = PatternedMedium(
            MediumGeometry(cols=dpb, rows=blocks, dots_per_block=dpb),
            MediumConfig(switching_sigma=sigma, write_field=write_field,
                         seed=seed))
        for dot in heated:
            medium.heat_dot(dot)
        with mock.patch.object(defects, "_CHUNK_BYTES", budget):
            report = scan_for_defects(
                medium, tolerance=tolerance, e_region_dots=e_region_dots,
                ecc_word_bits=ecc_word_bits, vectorized=vectorized)
        runs.append((report, medium))
    (scalar, scalar_medium), (chunked, chunked_medium) = runs
    assert chunked == scalar
    assert chunked_medium.counters == scalar_medium.counters
    assert chunked_medium._rng.bit_generator.state == \
        scalar_medium._rng.bit_generator.state
    np.testing.assert_array_equal(chunked_medium._mag, scalar_medium._mag)
    np.testing.assert_array_equal(chunked_medium._sharpness,
                                  scalar_medium._sharpness)


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


def _edge_case_device() -> SERODevice:
    """One device holding every line shape the batched audit must
    judge exactly as ``verify_line`` does.  Built from fixed seeds, so
    two calls build identical twins."""
    from repro.crypto.manchester import encode_bytes
    from repro.device.sector import ElectricalPayload
    from repro.security.attacks import ewb_data, ewb_hash

    device = SERODevice.create(128)
    data = np.random.default_rng(43)

    def line(start: int, n_blocks: int) -> None:
        for pba in range(start + 1, start + n_blocks):
            device.write_block(pba, data.bytes(512))
        device.heat_line(start, n_blocks, timestamp=start)

    # intact lines of 2, 4, 8 and 32 blocks
    for start, n_blocks in ((0, 2), (4, 4), (8, 8), (32, 32)):
        line(start, n_blocks)
    # heated data dots: their reads draw noise, in line order
    line(16, 4)
    ewb_data(device, 16, target_offset=2)
    # a double-bit error in one codeword of one data frame
    line(20, 4)
    dot = device.geometry.block_span(22)[0] + 72 * 5
    bits = device.medium.read_mag_span(dot, dot + 2)
    device.medium.write_mag_span(dot, 1 - bits)
    # a hash block that names another line start
    forged = ElectricalPayload(line_start=64, n_blocks_log2=2,
                               line_hash=bytes(32)).pack()
    device.ews_block(28, forged)
    # an incomplete cell: one cell of the hash block left unburnt
    for pba in range(25, 28):
        device.write_block(pba, data.bytes(512))
    payload = ElectricalPayload(line_start=24, n_blocks_log2=2,
                                line_hash=bytes(32)).pack()
    pattern = np.asarray(encode_bytes(payload), dtype=bool)
    pattern[40:42] = False
    start_dot = device.geometry.block_span(24)[0]
    device.medium.heat_span(start_dot, start_dot + len(pattern), pattern)
    # a hash block with an HH cell, and a virgin block
    line(64, 4)
    ewb_hash(device, 64)
    return device


#: Line starts of :func:`_edge_case_device`, with the verdict each
#: must get.
_EDGE_CASES = {0: VerifyStatus.INTACT, 4: VerifyStatus.INTACT,
               8: VerifyStatus.INTACT, 32: VerifyStatus.INTACT,
               16: VerifyStatus.UNREADABLE, 20: VerifyStatus.UNREADABLE,
               28: VerifyStatus.HASH_MISMATCH, 24: VerifyStatus.UNREADABLE,
               64: VerifyStatus.CELL_TAMPERED, 96: VerifyStatus.NOT_A_LINE}


def test_verify_lines_edge_cases_match_verify_line_twin():
    """Mixed line lengths, noisy heated data, an uncorrectable frame
    (only its own line is UNREADABLE), a forged line start and an
    incomplete cell (the per-line fallback) in one batched call."""
    starts = list(_EDGE_CASES)
    batched = _edge_case_device().verify_lines(starts)
    twin = _edge_case_device()
    reference = [twin.verify_line(start) for start in starts]
    assert [r.status for r in batched] == list(_EDGE_CASES.values())
    for got, want in zip(batched, reference):
        assert got.start == want.start
        assert got.status is want.status
        assert got.stored_hash == want.stored_hash
        assert got.computed_hash == want.computed_hash
        assert got.tampered_cells == want.tampered_cells


def test_verify_lines_decodes_in_capped_batches(monkeypatch):
    """A batch cap that splits the lines changes no verdict, no
    counter and no RNG draw."""
    import repro.device.sero as sero

    starts = list(_EDGE_CASES)
    whole = _edge_case_device()
    expected = whole.verify_lines(starts)
    monkeypatch.setattr(sero, "_DECODE_BATCH_FRAMES", 3)
    capped = _edge_case_device()
    assert capped.verify_lines(starts) == expected
    assert capped.medium.counters == whole.medium.counters
    assert capped.account.elapsed == whole.account.elapsed
    assert capped.medium._rng.bit_generator.state == \
        whole.medium._rng.bit_generator.state


#: SHA-256 of :func:`_golden_audit_trace`, recorded on the per-line
#: magnetic audit (one ECC decode per line, ``any``/``argmax`` erb
#: kernel) before the audit was batched.  The batched audit must
#: reproduce it bit for bit.  Re-recorded once since, when the file
#: system moved its blocks as runs: the set-up's puts and seals are
#: charged one transfer per run, so each member's ``mrb``/``mwb``
#: charges and ``elapsed`` fell by the per-run rounding, while its
#: verdicts, counters, RNG state and seek/erb/ewb charges stayed bit
#: for bit (``tests/test_fs_runs.py`` holds that equivalence).
#: Re-recorded again when a put came to walk its path once and the
#: file system's metadata cache to keep the blocks it writes: the
#: set-up's puts read back no inode or directory block, so each
#: member's ``mrb`` counter and its ``mrb`` and ``seek`` charges (and
#: ``elapsed``) fell, while its verdicts, RNG state, ``mwb``/``heat``
#: counters and ``mwb``/``erb``/``ewb`` charges stayed bit for bit.
_GOLDEN_AUDIT_SHA256 = \
    "07ad83c88372d8c577db7a6a76b7d03ccbcb38c827ce5ca176a1f173364771e8"


def _golden_audit_trace() -> str:
    """Eight seeded audits of a four-member fleet, one member's line
    hit by ``ewb_data`` after the third and another's by ``mwb_data``
    after the fifth: a digest of every verdict, then per member the
    medium counters, the cost account and the medium RNG state."""
    import hashlib
    import json
    import random

    from repro.api.store import StoreConfig
    from repro.security.attacks import ewb_data, mwb_data

    fleet = FleetStore.create(4, StoreConfig(total_blocks=256,
                                             audit_log=True))
    rng = random.Random(20080226)
    paths = []
    for i in range(24):
        path = f"/t/{i % 2}/{i // 8}/{i}"
        fleet.put(path, rng.randbytes(400 if i % 3 else 2048),
                  make_parents=True)
        paths.append(path)
    fleet.seal_many(paths)
    digest = hashlib.sha256()
    for n in range(8):
        if n == 3:
            device = fleet.members[1].device
            ewb_data(device, device.heated_lines[0].start)
        if n == 5:
            device = fleet.members[2].device
            mwb_data(device, device.heated_lines[-1].start)
        report = fleet.audit()
        digest.update(repr([(r.label, r.line_start, r.status.name)
                            for r in report.reports]).encode())
    for store in fleet.members:
        device = store.device
        digest.update(json.dumps(device.medium.counters,
                                 sort_keys=True).encode())
        digest.update(device.account.elapsed.hex().encode())
        digest.update(repr(sorted(
            (k, v.hex()) for k, v in
            device.account.by_category.items())).encode())
        digest.update(json.dumps(device.medium._rng.bit_generator.state,
                                 sort_keys=True).encode())
    return digest.hexdigest()


def test_batched_audit_golden_trace():
    assert _golden_audit_trace() == _GOLDEN_AUDIT_SHA256


def test_write_block_run_equivalent_to_sequential_writes():
    """A run op is its single-block op repeated, in both directions, on
    both engines, a run of one included: the same payloads, medium
    bytes, counters and RNG position (a heated dot in block 3 draws
    read noise).  A run of one, and any run on the scalar engine, also
    charges the same cost account and moves the mutation epoch alike;
    a longer span-engine run charges one transfer for the run.  A
    refused run names the same block, in the same words, as the single
    op that refuses it, and touches nothing."""
    from repro.errors import HeatedBlockError

    def state(device, exact):
        medium, account = device.medium, device.account
        common = (medium._mag.tobytes(), dict(medium.counters),
                  medium._rng.bit_generator.state, dict(account.op_counts))
        if not exact:
            return common
        return common + (medium.mutation_epoch, account.elapsed.hex(),
                         sorted((k, v.hex())
                                for k, v in account.by_category.items()))

    for span_engine in (True, False):
        for first, count in ((2, 1), (2, 5)):
            exact = count == 1 or not span_engine
            payloads = [bytes([i]) * 512 for i in range(count)]
            twins = []
            for by_run in (True, False):
                device = SERODevice.create(
                    16, config=DeviceConfig(span_engine=span_engine))
                if by_run:
                    device.write_block_run(first, payloads)
                else:
                    for i, payload in enumerate(payloads):
                        device.write_block(first + i, payload)
                device.medium.heat_dot(device.geometry.block_span(first)[0]
                                       + 100)
                if by_run:
                    read = device.read_block_run(first, count)
                else:
                    read = [device.read_block(first + i)
                            for i in range(count)]
                assert read == payloads
                twins.append(state(device, exact))
            assert twins[0] == twins[1], (span_engine, count)

        device = SERODevice.create(
            16, config=DeviceConfig(span_engine=span_engine))
        for pba in range(9, 16):
            device.write_block(pba, PAYLOAD)
        device.heat_line(8, 8)
        before = state(device, True)
        for single, runs in (
                (lambda: device.read_block(8),
                 (lambda: device.read_block_run(8, 1),
                  lambda: device.read_block_run(6, 4))),
                (lambda: device.write_block(8, PAYLOAD),
                 (lambda: device.write_block_run(8, [PAYLOAD]),
                  lambda: device.write_block_run(6, [PAYLOAD] * 4)))):
            with pytest.raises(HeatedBlockError) as want:
                single()
            assert "block 8 " in str(want.value)
            for run in runs:
                with pytest.raises(HeatedBlockError) as got:
                    run()
                assert str(got.value) == str(want.value)
        assert state(device, True) == before


def test_each_policy_check_is_stated_once():
    # A single-block sector op is the run of one of its run op, so each
    # HeatedBlockError refusal lives in one checked helper, and a line
    # is registered by a heat or by discovery: scan_lines over the
    # whole medium (after its two phases), load_line for one head.
    import ast
    import inspect

    from repro.device import sero

    tree = ast.parse(inspect.getsource(sero))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name == "SERODevice")
    functions = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)]

    def sites(predicate):
        return sorted(fn.name for fn in functions
                      for node in ast.walk(fn) if predicate(node))

    assert sites(lambda node: isinstance(node, ast.Raise)
                 and isinstance(node.exc, ast.Call)
                 and getattr(node.exc.func, "id", None)
                 == "HeatedBlockError") == \
        ["_checked_read_run", "_checked_write_run"]
    assert sites(lambda node: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "_register") == \
        ["heat_line", "load_line", "scan_lines"]


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
