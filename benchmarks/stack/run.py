"""One run of one stackbench workload (the ``BENCHMARK.json`` command).

    python3 benchmarks/stack/run.py --workload gw_ingest --seed 7 \\
        --seconds 10 --trace 0

runs :data:`PHASES` phases: each sets the workload up on a fresh fleet,
drives its closed-loop clients through the work the workload plans for
its share of ``--seconds``, and runs the correctness gate.  ``setup_s``
is the median set-up and every other metric pools the phases'
operations.  The run prints every metric with its unit and sample
count, and ends with one JSON line: ``correct``, ``attempted``,
``failed``, ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed; with ``--trace 1`` span recorders are installed
around each layer for the measured phase and the metrics are the
per-layer ones.  A per-layer value that does not apply to the
workload, or whose callable no longer resolves, reads 0 in the JSON
line and ``null`` in the printed table.

The program under test is imported from ``src/`` beside this
directory's parent; every ``REPRO_*`` variable is dropped first so no
policy knob leaks in from the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import SIM_CATEGORIES, TARGETS, layer_metrics
from recorder import Op, Recorder, sentinel
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: A run is this many phases, each a set-up on a fresh fleet followed
#: by its share of the measured work.  ``setup_s`` needs several
#: set-ups for its median anyway; measuring on every one of them
#: triples the samples a run pools for the same set-up cost, and
#: spreads them over more of the host's good and bad stretches.
PHASES = 3
#: A run whose fixed work takes this many times ``--seconds`` is cut
#: short, so no run can outlast the driver's patience.
OVERSTAY = 4
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

OP_KINDS = ("put", "seal", "verify", "get", "audit", "search")


def spec() -> dict:
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def calibrate(readings: int = 200) -> float:
    """Seconds the host-speed sentinel takes right now (the median of
    ``readings`` readings)."""
    return statistics.median(sentinel() for _ in range(readings))


def setup_clock() -> float:
    """The clock set-up is timed by: wall-clock seconds less the
    kernel seconds charged to this process.

    Set-up touches a few hundred MB of fresh pages, and on this
    microVM the kernel's share of identical set-ups swings between
    0.2 s and 5 s (of 1.2 to 6 s in all), with whether the host still
    backs the pages the guest last freed.  What is left is the
    program's own set-up work and any waiting it does; memory a later
    PR adds shows in ``peak_rss_mb``.  The plain wall-clock readings
    are printed beside."""
    return time.perf_counter() \
        - resource.getrusage(resource.RUSAGE_SELF).ru_stime


def typical(samples: List[float]) -> float:
    """The mean of the faster half of ``samples``: what the ``*_ms``
    latency metrics report.

    What disturbs a run on a shared host (a neighbour on the cores)
    comes in stretches of seconds and only ever adds time.  A median
    stands while fewer than half the samples are hit, but it slides up
    the undisturbed distribution as that share grows, and the HTTP
    latencies come in 4 ms steps, so any single order statistic jumps
    by a whole step (7 %) from run to run.  The faster half holds no
    disturbed sample until more than half are, and its mean moves
    smoothly.  The plain median is printed beside it."""
    ranked = sorted(samples)
    return statistics.fmean(ranked[:(len(ranked) + 1) // 2])


def median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def percentile(samples: List[float], percent: int) -> Optional[float]:
    """The ``percent``-th percentile (nearest rank), or None with
    fewer than :data:`TAIL_SAMPLES` samples beyond it."""
    rank = -(-percent * len(samples) // 100)  # ceiling, in integers
    if len(samples) - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def lap_rates(recorders: List[Recorder], laps: int
              ) -> Optional[List[float]]:
    """Operations per second in each lap of one phase: each client's
    operations, in issue order, split into ``laps`` equal counts; a
    lap's rate is its count over the seconds its operations took,
    summed over the clients.  The clients' think time between
    operations (payload generation, the sentinel) is not in it."""
    if any(len(rec.ops) < laps for rec in recorders):
        return None
    rates = []
    for lap in range(laps):
        rate = 0.0
        for rec in recorders:
            lo = lap * len(rec.ops) // laps
            hi = (lap + 1) * len(rec.ops) // laps
            rate += (hi - lo) / sum(op.seconds for op in rec.ops[lo:hi])
        rates.append(rate)
    return rates


def device_state(workload) -> dict:
    """Exact counters summed over the members: medium dot operations,
    simulated device seconds by category, index journal length."""
    state = {"journal": len(workload.index.journal), "sim": 0.0}
    for member in workload.fleet.members:
        for key, value in member.device.medium.counters.items():
            state[f"medium.{key}"] = state.get(f"medium.{key}", 0) + value
        state["sim"] += member.device.account.elapsed
        for key, value in member.device.account.by_category.items():
            state[f"sim.{key}"] = state.get(f"sim.{key}", 0.0) + value
    return state


def drive(workload, seeds: List[int], seconds: float):
    """Run the workload's clients through their planned rounds;
    returns one recorder per client."""
    recorders = [Recorder(workload.steady)
                 for _ in range(workload.clients)]
    deadline = time.perf_counter() + OVERSTAY * seconds

    def go_on() -> bool:
        return time.perf_counter() < deadline

    def client(k: int) -> None:
        try:
            workload.client(k, random.Random(seeds[k]), recorders[k], go_on)
        except Exception as exc:  # a dead client is a failed run
            recorders[k].errors.append(f"client {k} died: {exc!r}")
            recorders[k].ops.append(Op("harness", 0.0, 0.0, False))

    if workload.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(k,),
                                    name=f"client-{k}")
                   for k in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return recorders


class Phase:
    """What one set-up and its share of the measured work left."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.setup_wall = 0.0
        self.recorders: List[Recorder] = []
        self.gate = Recorder()
        self.delta: Dict[str, float] = {}  # device_state, after - before
        self.blocks_used = 0
        self.user_bytes = 0
        self.rounds = 0
        self.worker_rss_kb = 0
        self.calib_ms: List[float] = []


def run_phase(name: str, master: random.Random, seconds: float,
              tracer: Optional[Tracer]) -> Phase:
    """Set the workload up on a fresh fleet, drive ``seconds`` of
    planned work through it, run the correctness gate, tear it down."""
    from workloads import WORKLOADS  # needs src/ on the path

    phase = Phase()
    setup_seed = master.getrandbits(64)
    client_seeds = [master.getrandbits(64) for _ in range(2)]
    workload = WORKLOADS[name]()
    workload.plan(seconds)
    phase.rounds = workload.rounds
    try:
        t0, wall0 = setup_clock(), time.perf_counter()
        workload.setup(random.Random(setup_seed))
        phase.setup_s = setup_clock() - t0
        phase.setup_wall = time.perf_counter() - wall0
        before = device_state(workload)
        phase.calib_ms.append(calibrate() * 1e3)
        if tracer is not None:
            tracer.install(TARGETS)
        try:
            phase.recorders = drive(workload, client_seeds, seconds)
        finally:
            if tracer is not None:
                tracer.restore()
        phase.calib_ms.append(calibrate() * 1e3)
        after = device_state(workload)
        phase.delta = {key: after[key] - before.get(key, 0)
                       for key in after}
        workload.finish(phase.gate)
        phase.blocks_used = workload.free_at_format \
            - workload.free_blocks(workload.fleet)
        phase.user_bytes = workload.user_bytes
    finally:
        workload.close()
        phase.worker_rss_kb = workload.worker_rss_kb
        del workload
        gc.collect()
    return phase


def measure(name: str, seed: int, seconds: float, trace: bool):
    """One run: ``(metrics, samples, attempted, failed, notes)``.
    ``samples[key]`` is ``(count, remark or None)``; a latency's
    remark is its plain median (and, where the metric is steadied,
    the wall-clock median after it).

    The run is :data:`PHASES` phases, each a set-up on a fresh fleet
    followed by its share of the ``seconds`` of work; the phases'
    operations are pooled."""
    from workloads import LAPS, READS, WORKLOADS, WRITES  # needs src/

    master = random.Random(seed)
    tracer = Tracer() if trace else None
    phases = [run_phase(name, master, seconds / PHASES, tracer)
              for _ in range(PHASES)]

    steady = WORKLOADS[name].steady
    clients = WORKLOADS[name].clients
    recorders = [rec for phase in phases for rec in phase.recorders]
    gates = [phase.gate for phase in phases]
    ops = [op for rec in recorders for op in rec.ops]
    gate_ops = [op for gate in gates for op in gate.ops]
    errors = [e for rec in recorders + gates for e in rec.errors]
    attempted = len(ops) + len(gate_ops)
    failed = sum(1 for op in ops + gate_ops if not op.ok)
    notes = [f"failed: {error}" for error in errors[:10]]
    notes.append(f"work: {PHASES} phases x {phases[0].rounds} rounds x "
                 f"{clients} client(s), {len(ops)} operations in "
                 f"{sum(op.wall for op in ops) / clients:.1f} s")

    by_kind: Dict[str, List] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    n = len(ops)
    samples = {"ops_per_s": (n, None)}
    rates = [lap_rates(phase.recorders, LAPS) for phase in phases]
    rate = None if None in rates else \
        statistics.median(r for lap in rates for r in lap)
    user_bytes = sum(phase.user_bytes for phase in phases)
    calib = [ms for phase in phases for ms in phase.calib_ms]

    def delta(key: str) -> float:
        return sum(phase.delta.get(key, 0) for phase in phases)

    if not trace:
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in phases),
            "ops_per_s": rate,
            "sim_device_ms_per_op": delta("sim") * 1e3 / n if n else None,
            "space_amp": sum(p.blocks_used for p in phases) * 512
            / user_bytes if user_bytes else None,
            # this process plus its largest rpc worker
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + max(p.worker_rss_kb for p in phases)) / 1024.0,
        }
        for kind in OP_KINDS:
            took = by_kind.get(kind, ())
            key = f"{kind}_ms"
            if not took:
                metrics[key], samples[key] = None, (0, None)
                continue
            metrics[key] = typical([op.seconds for op in took]) * 1e3
            remark = f"median {median_ms(op.seconds for op in took):.6g}"
            if steady:
                remark += f", on the wall clock " \
                          f"{median_ms(op.wall for op in took):.6g}"
            samples[key] = (len(took), remark)
        notes.append("setup_s samples: "
                     + ", ".join(f"{p.setup_s:.3f}" for p in phases)
                     + " (wall clock "
                     + ", ".join(f"{p.setup_wall:.3f}" for p in phases)
                     + ")")
        notes.append("host_calib_ms around each phase: "
                     + " ".join(f"{ms:.4f}" for ms in calib))
        return metrics, samples, attempted, failed, notes

    spans, counts = tracer.results()
    metrics = layer_metrics(spans, counts, ops=n,
                            op_wall=sum(op.wall for op in ops),
                            user_bytes=user_bytes)
    for key in ("mrb", "mwb", "heat"):
        metrics[f"medium.{key}_per_op"] = delta(f"medium.{key}") / n
    for key in SIM_CATEGORIES:
        metrics[f"sim.device_ms_per_op.{key}"] = \
            delta(f"sim.{key}") * 1e3 / n
    metrics["search.journal_events_per_op"] = delta("journal") / n
    for label, kinds in (("read", READS), ("write", WRITES)):
        pooled = [op.seconds for kind in kinds
                  for op in by_kind.get(kind, ())]
        tail = percentile(pooled, 90)
        metrics[f"tail.{label}_p90_ms"] = \
            tail * 1e3 if tail is not None else None
        samples[f"tail.{label}_p90_ms"] = (len(pooled), None)
    missing = sorted(set(tracer.missing))
    metrics["harness.traced_ops_per_s"] = rate
    metrics["harness.host_calib_ms"] = max(calib)
    metrics["harness.untraced_targets"] = \
        len(missing) + counts.get("hook_errors", 0)
    for path in missing:
        notes.append(f"untraced (name did not resolve): {path}")
    return metrics, samples, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"stackbench: no program to measure at {SRC}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    declared = spec()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    metrics, samples, attempted, failed, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"stackbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    out = {}
    correct = failed == 0
    for entry in wanted:
        key = entry["name"]
        value = metrics.get(key)
        count, remark = samples.get(key, (None, None))
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {key:<36} {shown:>12} {entry['unit']:<8}"
              + (f" n={count}" if count is not None else "")
              + (f" ({remark})" if remark is not None else ""))
        if value is None and not args.trace:
            notes.append(f"failed: no value for {key}")
            correct = False
        out[key] = {"value": value if value is not None else 0,
                    "unit": entry["unit"]}
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
