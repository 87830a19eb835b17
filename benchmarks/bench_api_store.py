"""Façade speedup floors: TamperEvidentStore batch ops, engine vs engine.

The acceptance criterion of the ``repro.api`` redesign: the façade's
batch operations (``seal_many``, ``audit``) must hit the PR 1-2
span/batched engines *by default* — the same whole-store flow run on
a ``DeviceConfig(span_engine=False)`` store (the paper's literal
per-dot protocol, the test oracle) must be massively slower.  Floors
are deliberately conservative; the span-engine benches show the
per-layer gaps are far larger.

Results are also written to ``BENCH_api_store.json`` at the repo root
so the perf trajectory stays machine-readable.
"""

import json
import time
from pathlib import Path

import repro
from repro.analysis.report import format_table

REPO_ROOT = Path(__file__).resolve().parents[1]

TOTAL_BLOCKS = 96
N_OBJECTS = 6
OBJECT_BYTES = 700

FLOORS = {
    "seal_many": 3.0,
    "audit": 5.0,
}


def _best(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _flow(**store_options):
    """Provision a store, seal a batch, audit it; return timings and
    the receipts/verdicts for the equivalence assertion."""
    t0 = time.perf_counter()
    store = repro.TamperEvidentStore.create(total_blocks=TOTAL_BLOCKS,
                                            format_scan=False,
                                            **store_options)
    paths = []
    for i in range(N_OBJECTS):
        path = f"/obj-{i}"
        store.put(path, bytes([i + 1]) * OBJECT_BYTES)
        paths.append(path)
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    receipts = store.seal_many(paths, timestamp=1)
    t_seal = time.perf_counter() - t0

    t_audit, report = _best(store.audit, repeat=3)
    return {
        "span_engine": store.device.config.span_engine,
        "setup_s": t_setup,
        "seal_many_s": t_seal,
        "audit_s": t_audit,
        "receipts": receipts,
        "report": report,
    }


def test_facade_batch_ops_hit_fast_engines(benchmark, show):
    fast = benchmark.pedantic(_flow, rounds=1, iterations=1)
    assert fast["span_engine"]  # the default grain

    slow = _flow(device_config=repro.DeviceConfig(span_engine=False))
    assert not slow["span_engine"]

    # identical service semantics on both engines
    assert [r.line_hash for r in fast["receipts"]] == \
        [r.line_hash for r in slow["receipts"]]
    assert [r.status for r in fast["report"]] == \
        [r.status for r in slow["report"]]
    assert fast["report"].clean and slow["report"].clean

    speedups = {
        "seal_many": slow["seal_many_s"] / fast["seal_many_s"],
        "audit": slow["audit_s"] / fast["audit_s"],
    }
    rows = [[op, slow[f"{op}_s"] * 1e3, fast[f"{op}_s"] * 1e3,
             speedups[op]] for op in ("seal_many", "audit")]
    show(format_table(
        ["operation", "scalar [ms]", "vectorized [ms]", "speedup"],
        [[r[0], round(r[1], 2), round(r[2], 2), round(r[3], 1)]
         for r in rows],
        title=f"TamperEvidentStore batch ops — {N_OBJECTS} objects, "
              f"default store vs DeviceConfig(span_engine=False)"))

    payload = {
        "bench": "api_store",
        "objects": N_OBJECTS,
        "object_bytes": OBJECT_BYTES,
        "rows": [{"operation": r[0], "scalar_ms": round(r[1], 3),
                  "vectorized_ms": round(r[2], 3),
                  "speedup": round(r[3], 1)} for r in rows],
        "floors": FLOORS,
    }
    (REPO_ROOT / "BENCH_api_store.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    for op, floor in FLOORS.items():
        assert speedups[op] >= floor, (
            f"{op}: {speedups[op]:.1f}x < {floor}x floor — the façade "
            f"is not hitting the batched engines by default")
