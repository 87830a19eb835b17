"""Batched-engine speedup baseline: scalar reference vs batched paths.

PR 1's span engine vectorized the per-dot electrical protocol; this
bench covers the layers batched on top of it:

* **format** — ``scan_for_defects`` classifying the whole medium with
  numpy instead of dot-by-dot Python (floor: >= 20x on a
  default-geometry medium);
* **physics** — the Fig 7/8/9 sweeps evaluating a whole temperature
  grid as :class:`FilmEnsemble` array passes instead of one
  anneal/measurement per point (floor: >= 10x each);
* **audit** — level-at-a-time venti tree builds and the batched
  ``verify_lines`` sweep (reported; the equivalence is asserted in
  ``tests/test_batched_engine.py``).

Results are also written to ``BENCH_batched_engine.json`` at the repo
root so the perf trajectory stays machine-readable.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import format_table
from repro.device.sector import DOTS_PER_BLOCK
from repro.device.sero import DeviceConfig, SERODevice
from repro.integrity.venti import VentiStore
from repro.medium.defects import scan_for_defects
from repro.medium.geometry import geometry_for_blocks
from repro.medium.medium import MediumConfig, PatternedMedium
from repro.physics.anisotropy import calibrated_model
from repro.physics.annealing import FilmEnsemble, FilmState, anneal
from repro.physics.constants import AS_GROWN_K
from repro.physics.torque import measure_anisotropy, measure_anisotropy_batch
from repro.physics.xrd import (
    high_angle_scan,
    high_angle_scan_set,
    low_angle_scan,
    low_angle_scan_set,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PAYLOAD = bytes(range(256)) * 2
SCAN_BLOCKS = 32
SWEEP_POINTS = 256
SWEEP_GRID_C = np.linspace(25.0, 700.0, SWEEP_POINTS)

FLOORS = {
    "scan_for_defects": 20.0,
    "fig7 anisotropy sweep": 10.0,
    "fig8 low-angle sweep": 10.0,
    "fig9 high-angle sweep": 10.0,
}


def _best(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _scan_medium(seed: int = 17) -> PatternedMedium:
    geometry = geometry_for_blocks(SCAN_BLOCKS, DOTS_PER_BLOCK)
    return PatternedMedium(geometry, MediumConfig(switching_sigma=0.12,
                                                  write_field=1.5,
                                                  seed=seed))


def _measure_defect_scan():
    scalar, scalar_report = _best(
        lambda: scan_for_defects(_scan_medium(), vectorized=False), repeat=1)
    batched, batched_report = _best(
        lambda: scan_for_defects(_scan_medium(), vectorized=True), repeat=3)
    assert batched_report.bad_blocks == scalar_report.bad_blocks
    assert batched_report.fragile_blocks == scalar_report.fragile_blocks
    return scalar, batched


def _fig7_scalar():
    model = calibrated_model(AS_GROWN_K)
    out = []
    for t in SWEEP_GRID_C:
        state = anneal(FilmState(), float(t), 1800.0)
        k_true = model.k_eff(state.sharpness, state.crystalline_fraction)
        out.append(measure_anisotropy(k_true).k_measured)
    return np.asarray(out)


def _fig7_batched():
    model = calibrated_model(AS_GROWN_K)
    ensemble = FilmEnsemble.fresh(SWEEP_POINTS).anneal(SWEEP_GRID_C, 1800.0)
    k_true = model.k_eff_array(ensemble.sharpness,
                               ensemble.crystalline_fraction)
    return measure_anisotropy_batch(k_true)


def _sweep_ensemble() -> FilmEnsemble:
    return FilmEnsemble.fresh(SWEEP_POINTS).anneal(SWEEP_GRID_C, 1800.0)


def _measure_physics_sweeps():
    rows = {}
    _fig7_batched()  # warm-up: first-call numpy allocations
    scalar, k_scalar = _best(_fig7_scalar, repeat=2)
    batched, k_batched = _best(_fig7_batched, repeat=8)
    np.testing.assert_allclose(k_batched, k_scalar, rtol=1e-8)
    rows["fig7 anisotropy sweep"] = (scalar, batched)

    def _per_point_states():
        # the old per-point bench protocol: one fresh anneal per sample
        return [anneal(FilmState(), float(t), 1800.0) for t in SWEEP_GRID_C]

    scalar, low_ref = _best(
        lambda: [low_angle_scan(s) for s in _per_point_states()], repeat=1)
    batched, low_set = _best(
        lambda: low_angle_scan_set(_sweep_ensemble()), repeat=5)
    np.testing.assert_allclose(low_set.intensity,
                               [s.intensity for s in low_ref], rtol=1e-9)
    rows["fig8 low-angle sweep"] = (scalar, batched)

    scalar, high_ref = _best(
        lambda: [high_angle_scan(s) for s in _per_point_states()], repeat=3)
    batched, high_set = _best(
        lambda: high_angle_scan_set(_sweep_ensemble()), repeat=8)
    np.testing.assert_allclose(high_set.intensity,
                               [s.intensity for s in high_ref], rtol=1e-9)
    rows["fig9 high-angle sweep"] = (scalar, batched)
    return rows


def _venti_data() -> bytes:
    return np.random.default_rng(5).integers(
        0, 256, size=120_000, dtype=np.uint8).tobytes()


def _measure_venti():
    data = _venti_data()

    def build(batched):
        device = SERODevice.create(512)
        store = VentiStore(device=device, arena_start=0, arena_blocks=512,
                           batched=batched)
        return store.put_stream(data)

    scalar, root_seq = _best(lambda: build(False), repeat=2)
    batched, root_bat = _best(lambda: build(True), repeat=3)
    assert root_bat == root_seq  # byte-identical scores
    return scalar, batched


def _audit_device() -> SERODevice:
    device = SERODevice.create(64, config=DeviceConfig(span_engine=True))
    for start in range(0, 64, 8):
        for pba in range(start + 1, start + 8):
            device.write_block(pba, PAYLOAD)
        device.heat_line(start, 8, timestamp=start)
    return device


def _measure_verify_lines():
    # NB: the baseline here is the *per-line span-engine* loop, not the
    # scalar reference protocol (bench_span_engine covers that gap) —
    # this row isolates the increment from batching across lines.
    device = _audit_device()
    starts = [rec.start for rec in device.heated_lines]
    scalar, _ = _best(lambda: [device.verify_line(s) for s in starts],
                      repeat=2)
    batched, results = _best(lambda: device.verify_lines(starts), repeat=3)
    assert len(results) == len(starts)
    return scalar, batched


def _sweep():
    rows = {}
    rows["scan_for_defects"] = _measure_defect_scan()
    rows.update(_measure_physics_sweeps())
    rows["venti put_stream"] = _measure_venti()
    rows["verify_lines (8 lines, vs per-line span loop)"] = _measure_verify_lines()
    return rows


def test_batched_engine_speedups(benchmark, show):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = [[op, scalar * 1e3, batched * 1e3, scalar / batched]
             for op, (scalar, batched) in rows.items()]
    show(format_table(
        ["operation", "scalar [ms]", "batched [ms]", "speedup"],
        [[r[0], round(r[1], 2), round(r[2], 2), round(r[3], 1)]
         for r in table],
        title="batched engine — scalar reference vs batched wall clock"))

    payload = {
        "bench": "batched_engine",
        "rows": [{"operation": r[0], "scalar_ms": round(r[1], 3),
                  "batched_ms": round(r[2], 3),
                  "speedup": round(r[3], 1)} for r in table],
        "floors": FLOORS,
    }
    (REPO_ROOT / "BENCH_batched_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    by_op = {r[0]: r[3] for r in table}
    for op, floor in FLOORS.items():
        assert by_op[op] >= floor, f"{op}: {by_op[op]:.1f}x < {floor}x floor"
