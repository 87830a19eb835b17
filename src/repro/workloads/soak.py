"""Trace-driven chaos soak: mixed fleet pressure under injected faults.

The paper's tamper-evident guarantee is only worth what the auditor
can *keep* auditing, so this harness drives a sharded rpc
:class:`~repro.api.fleet.FleetStore` through a seeded trace of mixed
ingest / seal / audit / retrieve pressure while killing, restarting
and disconnecting its workers on schedule — and continuously checks
that the fault-tolerance layer keeps three invariants:

* **no partial folds** — a failed host contributes nothing: member
  state only ever advances by whole, completed passes (probed
  directly by racing a ``retries=0`` pass against a killed worker and
  checking every member fingerprint is untouched);
* **byte identity** — after every recovery the rpc fleet's members are
  fingerprint-identical (mutation epoch, counters, RNG continuation,
  line hashes, cost account — see
  :func:`repro.parallel.session.store_fingerprint`) to a serial
  *shadow fleet* that replayed the same trace with no faults at all;
* **clean audits at checkpoints** — a full fleet audit (line verdicts
  plus file-system consistency) stays clean at every checkpoint.

Every fleet op runs in ``on_failure="raise"`` + retry mode: a fault
mid-pass must be *recovered* (failover re-dispatch to surviving
hosts), not degraded away, and the recovered pass must be
byte-identical to the shadow's.  Results land in ``BENCH_soak.json``:

    python -m repro.workloads.soak --ops 48 --workers 2

Exit status 1 when any invariant was violated.

``BENCH_soak.json`` is a **trajectory**, not a snapshot: every run
*appends* its result (and its ops/s-under-faults datapoint) instead
of overwriting the file, so regressions in fault-tolerant throughput
show up as a bend in the series rather than silently replacing the
only datapoint.  The ``trajectory`` list keeps every datapoint ever
recorded; full run payloads are bounded to the most recent
:data:`MAX_KEPT_RUNS`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.fleet import FleetStore
from ..errors import ConfigurationError
from ..fs.cleaner import run_cleaner
from ..parallel.session import store_fingerprint
from ..search import EvidenceIndex

#: Fault actions a :class:`SoakFault` can schedule.
FAULT_ACTIONS = ("kill", "restart", "drop_connections")

#: Full run payloads kept in the trajectory file (the per-run series
#: itself is never truncated — one small dict per run).
MAX_KEPT_RUNS = 20


@dataclass(frozen=True)
class SoakFault:
    """One scheduled fault: before trace op ``at_op``, do ``action``
    to worker slot ``worker`` (ignored for ``drop_connections``,
    which drops every pooled client connection instead — the
    reconnect-or-fail path a flaky network exercises)."""

    at_op: int
    action: str
    worker: int = 0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown soak fault action {self.action!r}; expected "
                f"one of {FAULT_ACTIONS}")
        if self.at_op < 0 or self.worker < 0:
            raise ConfigurationError(
                "soak fault at_op and worker must be >= 0")


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run (everything seeded and schedulable)."""

    members: int = 4
    workers: int = 2
    ops: int = 48
    seed: int = 2008
    total_blocks: int = 192
    checkpoint_every: int = 12
    retries: int = 3
    timeout: Optional[float] = 30.0
    faults: Optional[Tuple[SoakFault, ...]] = None
    partial_fold_probe: bool = True
    #: LFS cleaner churn inside the trace (delete + segment-clean ops
    #: mixed into the schedule, applied identically to both twins).
    churn: bool = True
    #: After the final checkpoint: this many auditor threads race
    #: ``race_ops`` mutating ops on the live fleet (the shadow is done
    #: by then), checking the index/percolator invariants under real
    #: concurrency.  0 disables the phase.
    race_auditors: int = 2
    race_ops: int = 8
    #: Inject one real tamper at the very end and demand the standing
    #: alert fires exactly once (and only then).
    tamper_probe: bool = True

    def resolved_faults(self) -> Tuple[SoakFault, ...]:
        """The fault schedule: explicit, else the default chaos trace
        (two kills, one restart, one connection drop — the ISSUE 7
        acceptance floor)."""
        if self.faults is not None:
            return self.faults
        n = max(self.ops, 8)
        second = 1 % max(self.workers, 1)
        return (
            SoakFault(n // 4, "kill", worker=0),
            SoakFault(n // 2, "restart", worker=0),
            SoakFault(5 * n // 8, "drop_connections"),
            SoakFault(3 * n // 4, "kill", worker=second),
        )


@dataclass
class SoakReport:
    """Outcome of one soak run."""

    ops_completed: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    kills: int = 0
    restarts: int = 0
    connection_drops: int = 0
    checkpoints: int = 0
    audits_clean: int = 0
    violations: List[str] = field(default_factory=list)
    retries: Dict[str, int] = field(default_factory=dict)
    timeouts: Dict[str, int] = field(default_factory=dict)
    partial_fold_probe: str = "not_run"
    host_health: Dict[str, Dict[str, object]] = field(
        default_factory=dict)
    wall_seconds: float = 0.0
    #: Index/percolator invariant checks passed (rebuild identity +
    #: journal chain + zero false alerts, at every checkpoint).
    index_checks: int = 0
    #: Audits completed by the post-trace racing-auditor phase.
    race_audits: int = 0
    #: "fired_exactly" when the injected tamper raised its standing
    #: alert exactly once; "violated"; or "not_run".
    tamper_probe: str = "not_run"
    #: Tamper alerts fired across the whole run (must equal the
    #: injected tampers — zero false alerts on clean phases).
    alerts_fired: int = 0

    @property
    def clean(self) -> bool:
        """True when the soak saw zero invariant violations."""
        return not self.violations

    @property
    def ops_per_second(self) -> float:
        """Sustained trace throughput *under faults* — the number the
        trajectory series tracks across runs."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops_completed / self.wall_seconds

    def to_json(self) -> Dict[str, object]:
        return {
            "bench": "soak",
            "ops_per_second": round(self.ops_per_second, 3),
            "ops_completed": self.ops_completed,
            "op_counts": dict(self.op_counts),
            "kills": self.kills,
            "restarts": self.restarts,
            "connection_drops": self.connection_drops,
            "checkpoints": self.checkpoints,
            "audits_clean": self.audits_clean,
            "violations": list(self.violations),
            "failover_retries": dict(self.retries),
            "request_timeouts": dict(self.timeouts),
            "partial_fold_probe": self.partial_fold_probe,
            "host_health": self.host_health,
            "wall_seconds": round(self.wall_seconds, 6),
            "index_checks": self.index_checks,
            "race_audits": self.race_audits,
            "tamper_probe": self.tamper_probe,
            "alerts_fired": self.alerts_fired,
            "clean": self.clean,
        }


def build_trace(config: SoakConfig) -> List[Tuple[str, object]]:
    """The seeded op trace: a deterministic mixed-pressure schedule.

    Ops are ``("put", (path, payload))``, ``("seal", k)`` (seal up to
    ``k`` pending objects fleet-wide), ``("audit", None)`` and
    ``("get", None)`` (spot-read a previously written object).  With
    ``churn`` on, the schedule also mixes in ``("churn", k)`` (delete
    up to ``k`` pending objects — dead data for the cleaner) and
    ``("clean", None)`` (run the LFS cleaner on every member).  The
    trace is a pure function of the seed, so the rpc fleet and the
    serial shadow replay exactly the same pressure.
    """
    rng = random.Random(config.seed)
    trace: List[Tuple[str, object]] = []
    counter = 0
    for _ in range(config.ops):
        roll = rng.random()
        if config.churn:
            if roll < 0.34 or counter == 0:
                payload = bytes(rng.getrandbits(8)
                                for _ in range(rng.randrange(8, 160)))
                trace.append(("put",
                              (f"/soak-{counter:05d}", payload)))
                counter += 1
            elif roll < 0.54:
                trace.append(("seal", rng.randrange(1, 4)))
            elif roll < 0.62:
                trace.append(("churn", rng.randrange(1, 3)))
            elif roll < 0.68:
                trace.append(("clean", None))
            elif roll < 0.82:
                trace.append(("audit", None))
            else:
                trace.append(("get", None))
            continue
        if roll < 0.40 or counter == 0:
            payload = bytes(rng.getrandbits(8)
                            for _ in range(rng.randrange(8, 160)))
            trace.append(("put", (f"/soak-{counter:05d}", payload)))
            counter += 1
        elif roll < 0.65:
            trace.append(("seal", rng.randrange(1, 4)))
        elif roll < 0.80:
            trace.append(("audit", None))
        else:
            trace.append(("get", None))
    return trace


class _TraceRunner:
    """Apply one trace op to one fleet (rpc or shadow), tracking the
    written/pending paths so both twins make identical choices."""

    def __init__(self, fleet: FleetStore, seed: int) -> None:
        self.fleet = fleet
        self.rng = random.Random(seed ^ 0x5EA1)
        self.written: List[str] = []
        self.pending: List[str] = []

    def apply(self, kind: str, arg: object) -> None:
        if kind == "put":
            path, payload = arg
            self.fleet.put(path, payload)
            self.written.append(path)
            self.pending.append(path)
        elif kind == "seal":
            batch = self.pending[:int(arg)]
            if batch:
                self.fleet.seal_many(batch)
                del self.pending[:len(batch)]
        elif kind == "churn":
            # delete young (still-unsealed) objects: dead blocks for
            # the cleaner to reclaim, identical on both twins
            batch = self.pending[:int(arg)]
            for path in batch:
                self.fleet.delete(path)
                self.written.remove(path)
            del self.pending[:len(batch)]
        elif kind == "clean":
            # run the LFS cleaner directly on every member — a
            # client-side mutation the rpc session layer must fence
            # (next generation → the next pass ships it as a patch)
            for member in self.fleet.members:
                if member.fs is not None:
                    run_cleaner(member.fs, max_segments=1)
        elif kind == "audit":
            self.fleet.audit()
        elif kind == "get":
            if self.written:
                path = self.written[self.rng.randrange(
                    len(self.written))]
                self.fleet.get(path)
        else:  # pragma: no cover
            raise ConfigurationError(f"unknown soak op {kind!r}")


def _fingerprints(fleet: FleetStore) -> List[Tuple]:
    return [store_fingerprint(member) for member in fleet.members]


def run_soak(config: SoakConfig = SoakConfig()) -> SoakReport:
    """Run one chaos soak; see the module docstring for the contract.

    Spawns ``config.workers`` loopback worker daemons, replays the
    seeded trace on an rpc fleet (with the configured fault policy)
    and a serial shadow fleet, injects the fault schedule, and checks
    the invariants at every checkpoint.  Workers are always reaped.
    """
    from ..parallel.remote import (RpcConnectionError, RpcExecutor,
                                   close_connection_pools,
                                   host_health_snapshot,
                                   reset_host_health,
                                   spawn_local_worker)

    report = SoakReport()
    trace = build_trace(config)
    faults = {(f.at_op): [] for f in config.resolved_faults()}
    for fault in config.resolved_faults():
        faults[fault.at_op].append(fault)

    reset_host_health()
    workers = [spawn_local_worker() for _ in range(config.workers)]
    addresses = [w.address for w in workers]
    alive = [True] * len(workers)
    t0 = time.perf_counter()
    try:
        executor = RpcExecutor(
            addresses, timeout=config.timeout, retries=config.retries,
            on_failure="raise")
        fleet = FleetStore.create(
            config.members, seed=config.seed, executor=executor,
            total_blocks=config.total_blocks)
        shadow = FleetStore.create(
            config.members, seed=config.seed, executor="serial",
            total_blocks=config.total_blocks)
        # the evidence index rides the live fleet's ops (the shadow
        # stays index-free: the index is maintenance under test, not
        # part of the byte-identity contract)
        index = EvidenceIndex()
        fleet.attach_indexer(index)
        index.register_alert("soak-tamper", "tampered:true")
        live_run = _TraceRunner(fleet, config.seed)
        shadow_run = _TraceRunner(shadow, config.seed)
        probe_armed = config.partial_fold_probe

        def check_index(label: str, *, expect_alerts: int) -> None:
            """Index/percolator invariants: the incrementally
            maintained index must be byte-identical to a rebuild from
            its journal, the journal chain must verify, and the
            standing tamper query must have fired exactly
            ``expect_alerts`` times."""
            ok = True
            try:
                index.verify_journal()
            except Exception as exc:
                report.violations.append(
                    f"{label}: index journal broken: {exc}")
                ok = False
            if index.rebuild().canonical_bytes() \
                    != index.canonical_bytes():
                report.violations.append(
                    f"{label}: incremental index diverged from "
                    f"rebuild()")
                ok = False
            fired = len(index.alerts)
            if fired != expect_alerts:
                report.violations.append(
                    f"{label}: standing tamper query fired {fired} "
                    f"time(s), expected {expect_alerts}")
                ok = False
            report.alerts_fired = fired
            if ok:
                report.index_checks += 1

        def checkpoint(label: str) -> None:
            report.checkpoints += 1
            if _fingerprints(fleet) != _fingerprints(shadow):
                report.violations.append(
                    f"{label}: member fingerprints diverged from the "
                    f"serial shadow")
            if live_run.written:
                idx = report.checkpoints % len(live_run.written)
                path = live_run.written[idx]
                if fleet.get(path) != shadow.get(path):
                    report.violations.append(
                        f"{label}: object {path!r} bytes diverged")
            audited = fleet.audit()
            shadow_audit = shadow.audit()
            if audited.clean and shadow_audit.clean:
                report.audits_clean += 1
            else:
                report.violations.append(
                    f"{label}: fleet audit not clean "
                    f"(errors: {audited.fs_errors[:3]})")
            if _fingerprints(fleet) != _fingerprints(shadow):
                report.violations.append(
                    f"{label}: post-audit fingerprints diverged")
            check_index(label, expect_alerts=0)

        def probe_partial_fold(label: str) -> None:
            """The no-partial-folds invariant, probed directly: a
            fail-fast pass racing the fresh kill must either abort
            with every member fingerprint untouched, or (if the ring
            happened to avoid the dead host) complete wholly."""
            before = _fingerprints(fleet)
            fleet._executor = RpcExecutor(
                addresses, timeout=config.timeout, retries=0,
                on_failure="raise")
            try:
                fleet.audit()
            except RpcConnectionError:
                if _fingerprints(fleet) != before:
                    report.violations.append(
                        f"{label}: aborted pass folded partial state")
                    report.partial_fold_probe = "violated"
                else:
                    report.partial_fold_probe = "verified"
            else:
                # no member landed on the dead host: the audit
                # completed whole — replay it on the shadow to keep
                # the twins aligned
                shadow.audit()
                report.partial_fold_probe = "fault_not_hit"
            finally:
                fleet._executor = executor

        for op_index, (kind, arg) in enumerate(trace):
            for fault in faults.get(op_index, ()):
                if fault.action == "kill" and alive[fault.worker]:
                    workers[fault.worker].kill()
                    alive[fault.worker] = False
                    report.kills += 1
                    if probe_armed:
                        probe_partial_fold(f"op {op_index}")
                        # the ring may have placed no member on the
                        # dead host (the pass completed whole): stay
                        # armed and probe again on the next kill
                        probe_armed = \
                            report.partial_fold_probe == "fault_not_hit"
                elif fault.action == "restart" and \
                        not alive[fault.worker]:
                    workers[fault.worker] = spawn_local_worker(
                        bind=addresses[fault.worker])
                    alive[fault.worker] = True
                    report.restarts += 1
                elif fault.action == "drop_connections":
                    close_connection_pools()
                    report.connection_drops += 1
            live_run.apply(kind, arg)
            shadow_run.apply(kind, arg)
            report.ops_completed += 1
            report.op_counts[kind] = report.op_counts.get(kind, 0) + 1
            stats = fleet.last_op
            for host, count in stats.retries.items():
                report.retries[host] = \
                    report.retries.get(host, 0) + count
            for host, count in stats.timeouts.items():
                report.timeouts[host] = \
                    report.timeouts.get(host, 0) + count
            if (op_index + 1) % config.checkpoint_every == 0:
                checkpoint(f"checkpoint after op {op_index}")
        checkpoint("final checkpoint")

        # -- phase 2: concurrent audits racing mutating ops ------------
        # (live fleet only — the shadow's byte-identity contract is
        # settled; this phase stresses the footprint locks and the
        # index's concurrent ingest instead)
        if config.race_auditors > 0 and config.race_ops > 0:
            errors: List[str] = []

            def _auditor(slot: int) -> None:
                try:
                    for _ in range(2):
                        audited = fleet.audit()
                        if not audited.clean:
                            errors.append(
                                f"racing auditor {slot}: audit not "
                                f"clean on untampered fleet")
                        report.race_audits += 1
                except Exception as exc:  # noqa: BLE001 - reported
                    errors.append(f"racing auditor {slot}: {exc}")

            auditors = [threading.Thread(target=_auditor, args=(i,))
                        for i in range(config.race_auditors)]
            for thread in auditors:
                thread.start()
            race_rng = random.Random(config.seed ^ 0xACE5)
            race_paths = []
            try:
                for i in range(config.race_ops):
                    path = f"/soak-race-{i:03d}"
                    payload = bytes(race_rng.getrandbits(8)
                                    for _ in range(32))
                    fleet.put(path, payload)
                    race_paths.append(path)
                    if len(race_paths) % 3 == 0:
                        fleet.seal_many(race_paths[-3:])
            except Exception as exc:  # noqa: BLE001 - reported
                errors.append(f"racing mutator: {exc}")
            finally:
                for thread in auditors:
                    thread.join()
            report.violations.extend(errors)
            check_index("race phase", expect_alerts=0)

        # -- phase 3: injected tamper must fire the standing alert -----
        if config.tamper_probe:
            from ..security.attacks import mwb_data

            target = None
            for m_index, member in enumerate(fleet.members):
                for path in sorted(member.receipts):
                    target = (m_index, member, member.receipts[path],
                              path)
                    break
                if target is not None:
                    break
            if target is None:
                report.tamper_probe = "no_sealed_object"
            else:
                m_index, member, receipt, path = target
                before = len(index.alerts)
                mwb_data(member.device, receipt.line_start)
                tampered_audit = fleet.audit()
                new_alerts = index.alerts[before:]
                doc_id = f"obj:{path}"
                if tampered_audit.clean:
                    report.violations.append(
                        "tamper probe: audit stayed clean after "
                        "mwb_data forgery")
                    report.tamper_probe = "violated"
                elif len(new_alerts) != 1 \
                        or new_alerts[0].doc_id != doc_id:
                    report.violations.append(
                        f"tamper probe: expected exactly one alert on "
                        f"{doc_id}, got "
                        f"{[(a.name, a.doc_id) for a in new_alerts]}")
                    report.tamper_probe = "violated"
                else:
                    report.tamper_probe = "fired_exactly"
                check_index("tamper probe",
                            expect_alerts=before + len(new_alerts))
        report.host_health = host_health_snapshot()
    finally:
        report.wall_seconds = time.perf_counter() - t0
        for worker in workers:
            worker.stop()
        close_connection_pools()
        reset_host_health()
    return report


def _trajectory_point(payload: Dict[str, object]) -> Dict[str, object]:
    """The compact per-run datapoint the unbounded series keeps."""
    return {
        "ops_per_second": payload.get("ops_per_second", 0.0),
        "ops_completed": payload.get("ops_completed", 0),
        "wall_seconds": payload.get("wall_seconds", 0.0),
        "kills": payload.get("kills", 0),
        "restarts": payload.get("restarts", 0),
        "connection_drops": payload.get("connection_drops", 0),
        "failover_retries": sum(
            payload.get("failover_retries", {}).values()),
        "clean": payload.get("clean", False),
    }


def append_trajectory(path: str, payload: Dict[str, object]) -> Dict[str, object]:
    """Append one run to the ``BENCH_soak.json`` trajectory file.

    The file holds ``{"bench": "soak", "trajectory": [...], "runs":
    [...]}`` — the series keeps every run's ops/s-under-faults
    datapoint, ``runs`` the last :data:`MAX_KEPT_RUNS` full payloads.
    A file that holds no trajectory (unparsable, or any other JSON) is
    restarted rather than crashing the soak that just passed.
    """
    document: Dict[str, object] = {"bench": "soak",
                                   "trajectory": [], "runs": []}
    try:
        with open(path, "r") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and \
                isinstance(existing.get("trajectory"), list):
            document["trajectory"] = existing["trajectory"]
            runs = existing.get("runs")
            document["runs"] = runs if isinstance(runs, list) else []
    except (OSError, ValueError):
        pass
    document["trajectory"].append(_trajectory_point(payload))
    document["runs"] = (document["runs"] + [payload])[-MAX_KEPT_RUNS:]
    document["latest"] = payload
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.soak",
        description="trace-driven fleet chaos soak")
    parser.add_argument("--ops", type=int, default=48)
    parser.add_argument("--members", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--checkpoint-every", type=int, default=12)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--no-churn", dest="churn",
                        action="store_false", default=True,
                        help="disable LFS cleaner churn in the trace")
    parser.add_argument("--race-auditors", type=int, default=2,
                        help="post-trace auditor threads racing "
                             "mutating ops (0 disables the phase)")
    parser.add_argument("--race-ops", type=int, default=8)
    parser.add_argument("--no-tamper-probe", dest="tamper_probe",
                        action="store_false", default=True,
                        help="skip the end-of-run tamper injection")
    parser.add_argument("--json", default="BENCH_soak.json",
                        help="result file path ('-' to skip)")
    args = parser.parse_args(argv)
    config = SoakConfig(
        members=args.members, workers=args.workers, ops=args.ops,
        seed=args.seed, checkpoint_every=args.checkpoint_every,
        retries=args.retries, timeout=args.timeout, churn=args.churn,
        race_auditors=args.race_auditors, race_ops=args.race_ops,
        tamper_probe=args.tamper_probe)
    report = run_soak(config)
    payload = report.to_json()
    payload["config"] = {
        "members": config.members, "workers": config.workers,
        "ops": config.ops, "seed": config.seed,
        "checkpoint_every": config.checkpoint_every,
        "retries": config.retries, "timeout": config.timeout,
        "churn": config.churn,
        "race_auditors": config.race_auditors,
        "race_ops": config.race_ops,
        "tamper_probe": config.tamper_probe,
    }
    runs_recorded = 1
    if args.json != "-":
        document = append_trajectory(args.json, payload)
        runs_recorded = len(document["trajectory"])
    status = "CLEAN" if report.clean else "VIOLATIONS"
    print(f"soak {status}: {report.ops_completed} ops, "
          f"{report.kills} kills, {report.restarts} restarts, "
          f"{report.connection_drops} drops, "
          f"{report.checkpoints} checkpoints "
          f"({report.audits_clean} clean audits), "
          f"failover retries {sum(report.retries.values())}, "
          f"partial-fold probe: {report.partial_fold_probe}, "
          f"index checks {report.index_checks}, "
          f"race audits {report.race_audits}, "
          f"tamper probe: {report.tamper_probe} "
          f"({report.alerts_fired} alert(s)), "
          f"{report.ops_per_second:.2f} ops/s under faults, "
          f"{report.wall_seconds:.1f}s "
          f"(trajectory: {runs_recorded} run(s))")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
