"""The whole benchmark in one command, and the comparison of two of
its results (run from the repository root)::

    python3 -m benchmarks.stack run --seed 20080226 --out A.json
    python3 -m benchmarks.stack run --seed 20080226 --out B.json
    python3 -m benchmarks.stack compare A.json B.json

``run`` executes every workload of ``BENCHMARK.json`` in fresh
``run.py`` subprocesses of ``run_seconds`` each: :data:`RUNS` times
untraced for the end-to-end metrics (the median of the runs is
recorded, and each run beside it) and once traced for the per-layer
ones.  It prints every metric by
name with its unit, exits non-zero if any correctness check failed,
and writes one result file: the seed, the host (core count, python
and numpy versions, load average), and per workload its ``why``, both
metric sets and ``trace_overhead_ratio``, the traced run's
``ops_per_s`` over the untraced median.

``compare`` prints one row per workload × metric and exits non-zero
when an end-to-end metric differs by more than its bound in
``BENCHMARK.json``, or when an exact metric differs at all.  Both
files must be of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The seed reserved for verifying a claimed gain: use any other while
#: writing the change.
CLAIM_SEED = 20080226

#: Untraced runs per workload.  One run can land on a bad minute of
#: the host; the driver's own check takes medians of ten.
RUNS = 3

#: One client, no threads: the same seed gives the same operations,
#: so counts made by the program repeat bit for bit.
EXACT_WORKLOADS = ("lib_audit", "rpc_passes")
EXACT_END_TO_END = ("sim_device_ms_per_op", "space_amp")


def is_exact(workload: str, metric: str) -> bool:
    """Counts the program makes, on a workload where they repeat."""
    if workload not in EXACT_WORKLOADS:
        return False
    if metric in EXACT_END_TO_END:
        return True
    return (metric.startswith("medium.") and "_ms_" not in metric) \
        or (metric.startswith("device.") and
            metric.endswith(".calls_per_op"))


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float,
             trace: int) -> Optional[dict]:
    """One ``run.py`` subprocess; its table is passed through and its
    closing JSON line returned (None if it printed none)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        return None
    print("\n".join(lines[:-1]))
    return result


def values(result: dict) -> Dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def cmd_run(args) -> int:
    import numpy

    declared = spec()
    seconds = declared["run_seconds"]
    out = {
        "seed": args.seed,
        "seconds": seconds,
        "runs": RUNS,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1m": os.getloadavg()[0],
        },
        "workloads": {},
    }
    ok = True
    for entry in declared["workloads"]:
        name = entry["name"]
        plain = [run_once(name, args.seed, seconds, trace=0)
                 for _ in range(RUNS)]
        traced = run_once(name, args.seed, seconds, trace=1)
        if traced is None or None in plain:
            print(f"stackbench: {name} printed no result", file=sys.stderr)
            return 1
        runs = [values(result) for result in plain]
        end_to_end = {metric: statistics.median(run[metric] for run in runs)
                      for metric in runs[0]}
        per_layer = values(traced)
        ratio = per_layer["harness.traced_ops_per_s"] \
            / end_to_end["ops_per_s"]
        print(f"  {'trace_overhead_ratio':<36} {ratio:>12.4g} ratio\n")
        correct = traced["correct"] and all(r["correct"] for r in plain)
        ok = ok and correct
        out["workloads"][name] = {
            "why": entry["why"],
            "correct": correct,
            "attempted": plain[0]["attempted"],
            "failed": max(result["failed"] for result in plain),
            "end_to_end": end_to_end,
            "end_to_end_runs": runs,
            "per_layer": per_layer,
            "trace_overhead_ratio": ratio,
        }
    path = Path(args.out or ROOT / ".stackbench" / f"seed{args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"stackbench: wrote {path}" + ("" if ok else "  (NOT CORRECT)"))
    return 0 if ok else 1


def cmd_compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    declared = spec()
    if a["seed"] != b["seed"]:
        print(f"stackbench compare: seeds differ ({a['seed']}, {b['seed']})",
              file=sys.stderr)
        return 2
    bad: List[str] = []
    print(f"{'workload':<11} {'metric':<36} {'A':>12} {'B':>12} "
          f"{'change':>8}  verdict")
    for name in a["workloads"]:
        for group in ("end_to_end", "per_layer"):
            for entry in declared[group]:
                metric = entry["name"]
                x = a["workloads"][name][group].get(metric)
                y = b["workloads"][name][group].get(metric)
                if x is None or y is None:
                    continue
                change = (y - x) / abs(x) if x else float(y != x)
                bound = entry.get("bound")
                if is_exact(name, metric):
                    verdict = "exact" if x == y else "DIFFERS (exact)"
                elif bound is None:
                    verdict = "-"
                elif abs(change) <= bound:
                    verdict = f"within {bound:g}"
                else:
                    worse = (change > 0) == (entry["better"] == "lower")
                    verdict = f"{'WORSE' if worse else 'BETTER'} " \
                              f"by more than {bound:g}"
                if verdict[0].isupper():
                    bad.append(f"{name} {metric}: {verdict}")
                print(f"{name:<11} {metric:<36} {x:>12.6g} {y:>12.6g} "
                      f"{change:>+8.1%}  {verdict}")
    for line in bad:
        print(f"stackbench compare: {line}")
    print(f"stackbench compare: {'FAIL' if bad else 'ok'} "
          f"({len(bad)} metric(s) out of bounds)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.stack",
        description="Run every stackbench workload, or compare two runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload, plain and traced")
    run.add_argument("--seed", type=int, default=CLAIM_SEED)
    run.add_argument("--out", help="result file "
                     "(default .stackbench/seed<N>.json)")
    run.set_defaults(fn=cmd_run)
    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
