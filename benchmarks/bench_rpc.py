"""Remote RPC executor floor: byte-identity over real loopback workers.

The hard acceptance criterion for remote dispatch is not speed — a
loopback round trip pays pickling plus TCP for work another process
could do in place — it is *fidelity*: every fleet pass (format / seal /
audit / fsck) dispatched on the ``rpc`` executor must produce
per-member reports **byte-identical** to the ``serial`` reference,
including line hashes and simulated device time.  That is the floor
this bench enforces, against two real worker daemons spawned on
loopback.

Alongside it, the bench records the quantities an operator sizes a
real deployment with:

* **transport bytes** — the compact member snapshot a pinning pass
  ships out, the ~kB :class:`StoreStatePatch` a read-only pass sends
  home, and the measured audit traffic of a *cold* pass (every member
  re-pinned: snapshots out) vs a *steady* one (pins warm: descriptors
  out) on the same fleet — floored at a >= 50x bytes-out reduction;
* **walls** — serial vs cold vs steady rpc audit wall clock, and the
  simulated rack makespan under per-host dispatch.

Results land in ``BENCH_rpc.json`` at the repo root.
"""

import json
import pickle
import time
from pathlib import Path

from repro.analysis.report import format_table
from repro.api.store import StoreStatePatch
from repro.parallel import RpcExecutor, close_connection_pools, \
    spawn_local_worker
from repro.parallel.session import invalidate
from repro.workloads.fleet import FleetScheduler

REPO_ROOT = Path(__file__).resolve().parents[1]

N_DEVICES = 6
BLOCKS_PER_DEVICE = 64
LINES_PER_DEVICE = 20
LINE_BLOCKS = 2
N_WORKERS = 2
FLOORS = {"byte_identity": True,
          "session_audit_bytes_out_reduction": 50.0}


def _fleet(executor):
    return FleetScheduler.build(N_DEVICES, BLOCKS_PER_DEVICE,
                                switching_sigma=0.02, executor=executor)


def _drive(fleet):
    """The four passes; returns (fingerprints per pass, audit report)."""
    formatted = fleet.format_fleet()
    sealed = fleet.seal_fleet(lines_per_device=LINES_PER_DEVICE,
                              line_blocks=LINE_BLOCKS)
    audited = fleet.audit_fleet()
    fscked = fleet.fsck_fleet()
    return {
        "format": formatted.fingerprints(),
        "seal": sealed.fingerprints(),
        "audit": audited.fingerprints(),
        "fsck": fscked.fingerprints(),
    }, audited


def _best_audit_wall(fleet, rounds=3):
    best = float("inf")
    last = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        last = fleet.audit_fleet()
        best = min(best, time.perf_counter() - t0)
    return best, last


def test_rpc_byte_identity_floor(benchmark, show):
    workers = [spawn_local_worker() for _ in range(N_WORKERS)]
    hosts = [w.address for w in workers]
    try:
        serial = _fleet("serial")
        serial_prints, serial_audit = _drive(serial)

        remote = _fleet(RpcExecutor(hosts))
        remote_prints, remote_audit = benchmark.pedantic(
            lambda: _drive(remote), rounds=1, iterations=1)

        # THE floor: remote dispatch must not change a single byte of
        # any per-member report, across all four passes
        for op in ("format", "seal", "audit", "fsck"):
            assert remote_prints[op] == serial_prints[op], \
                f"rpc {op} pass diverged from the serial reference"

        serial_wall, _ = _best_audit_wall(serial)
        # cold: every pin dropped, so this audit re-ships each member
        # snapshot before running; steady: the pins it left are warm
        # and the same audit sends task descriptors only
        for store in remote.stores:
            invalidate(store)
        t0 = time.perf_counter()
        cold = remote.audit_fleet()
        cold_wall = time.perf_counter() - t0
        steady_wall, steady = _best_audit_wall(remote)
        cold_out = sum(cold.bytes_out.values())
        cold_back = sum(cold.bytes_back.values())
        steady_out = sum(steady.bytes_out.values())
        steady_back = sum(steady.bytes_back.values())
        out_reduction = cold_out / max(steady_out, 1)

        # transport accounting on a provisioned member
        member = remote.stores[0]
        snapshot_bytes = len(pickle.dumps(member,
                                          pickle.HIGHEST_PROTOCOL))
        patch_bytes = len(pickle.dumps(StoreStatePatch.capture(member),
                                       pickle.HIGHEST_PROTOCOL))

        rows = [
            ["serial", 1, round(serial_wall * 1e3, 2), "-", "-"],
            [f"rpc cold x{len(hosts)}", cold.workers,
             round(cold_wall * 1e3, 2), cold_out, cold_back],
            [f"rpc steady x{len(hosts)}", steady.workers,
             round(steady_wall * 1e3, 2), steady_out, steady_back],
        ]
        show(format_table(
            ["dispatch", "workers", "audit wall [ms]",
             "bytes out", "bytes back"],
            rows,
            title=f"rpc fleet audit, {N_DEVICES} devices x "
                  f"{BLOCKS_PER_DEVICE} blocks over {len(hosts)} "
                  f"loopback workers"))
        show(f"transport per member: snapshot out "
             f"{snapshot_bytes / 1024:.1f} kB, read-only patch back "
             f"{patch_bytes / 1024:.1f} kB "
             f"({snapshot_bytes / max(patch_bytes, 1):.0f}x asymmetry); "
             f"audit bytes-out reduction {out_reduction:.0f}x "
             f"(steady vs cold pass)")

        payload = {
            "bench": "rpc",
            "devices": N_DEVICES,
            "blocks_per_device": BLOCKS_PER_DEVICE,
            "lines_audited": serial_audit.lines_verified,
            "workers": len(hosts),
            "hosts": sorted(hosts),
            "byte_identical_passes": ["format", "seal", "audit", "fsck"],
            "serial_audit_wall_s": round(serial_wall, 6),
            "cold_audit_wall_s": round(cold_wall, 6),
            "steady_audit_wall_s": round(steady_wall, 6),
            "serial_makespan_s": round(
                serial_audit.simulated_makespan_seconds, 6),
            "rpc_makespan_s": round(
                remote_audit.simulated_makespan_seconds, 6),
            "snapshot_out_bytes": snapshot_bytes,
            "patch_back_bytes": patch_bytes,
            "cold_audit_out_bytes": cold_out,
            "cold_audit_back_bytes": cold_back,
            "steady_audit_out_bytes": steady_out,
            "steady_audit_back_bytes": steady_back,
            "steady_audit_out_reduction": round(out_reduction, 1),
            "floors": FLOORS,
        }
        (REPO_ROOT / "BENCH_rpc.json").write_text(
            json.dumps(payload, indent=2) + "\n")

        assert serial_audit.lines_verified == N_DEVICES * LINES_PER_DEVICE
        assert remote_audit.hosts == tuple(sorted(hosts))
        # the read-only return leg must stay orders smaller than the
        # outbound snapshot (the network-shaped property PR 4 built)
        assert patch_bytes * 10 < snapshot_bytes
        # the session floor: audit traffic out drops by >= 50x once
        # members are pinned
        assert out_reduction >= \
            FLOORS["session_audit_bytes_out_reduction"]
    finally:
        for worker in workers:
            worker.stop()
        close_connection_pools()


def test_rpc_failover_floor(benchmark, show):
    """The recovery floor (ISSUE 7): SIGKILL one of three workers
    mid-sequence — the next pass, running with a retry budget in
    ``on_failure="raise"`` mode, must absorb the dead host and stay
    byte-identical to the serial reference.  Records the cost of that
    recovery: the first post-kill pass pays failure detection, backoff
    and re-dispatch; once the host's breaker is open, subsequent
    passes return to near-clean walls."""
    from repro.parallel import HashRing, parse_hosts, reset_host_health

    workers = [spawn_local_worker() for _ in range(3)]
    hosts = [w.address for w in workers]
    # kill a host the ring actually placed members on (placement is a
    # pure function of the host set, so the bench can compute it)
    victim_addr = HashRing(parse_hosts(hosts)).lookup("member-0")
    reset_host_health()
    try:
        # audits mutate member state (RNG, counters, cost account), so
        # the serial twin is driven in lockstep, pass for pass
        serial = _fleet("serial")
        fleet = _fleet(RpcExecutor(hosts, retries=2))
        assert fleet.format_fleet().fingerprints() == \
            serial.format_fleet().fingerprints()
        assert fleet.seal_fleet(
            lines_per_device=LINES_PER_DEVICE,
            line_blocks=LINE_BLOCKS).fingerprints() == \
            serial.seal_fleet(lines_per_device=LINES_PER_DEVICE,
                              line_blocks=LINE_BLOCKS).fingerprints()
        clean_wall, clean = _best_audit_wall(fleet)  # 3 audits
        serial.audit_fleet()
        serial.audit_fleet()
        assert clean.fingerprints() == \
            serial.audit_fleet().fingerprints()

        victim = next(w for w in workers if w.address == victim_addr)
        victim.kill()
        t0 = time.perf_counter()
        audited = benchmark.pedantic(fleet.audit_fleet,
                                     rounds=1, iterations=1)
        failover_wall = time.perf_counter() - t0
        # THE floor: the recovered pass is byte-identical to serial
        assert audited.fingerprints() == \
            serial.audit_fleet().fingerprints(), \
            "failover audit pass diverged from the serial reference"
        assert sum(audited.retries.values()) >= 1
        # breaker now open: the next pass routes around the dead host
        steady_wall, steady = _best_audit_wall(fleet)
        serial.audit_fleet()
        serial.audit_fleet()
        assert steady.fingerprints() == \
            serial.audit_fleet().fingerprints()
        assert fleet.fsck_fleet().fingerprints() == \
            serial.fsck_fleet().fingerprints()

        show(format_table(
            ["pass", "wall [ms]", "note"],
            [["clean (3 workers)", round(clean_wall * 1e3, 2), "-"],
             ["failover (1 killed)", round(failover_wall * 1e3, 2),
              f"{sum(audited.retries.values())} re-dispatches"],
             ["steady (breaker open)", round(steady_wall * 1e3, 2),
              "dead host skipped"]],
            title="rpc failover recovery cost, audit pass, "
                  f"{N_DEVICES} devices over 3 -> 2 loopback workers"))

        path = REPO_ROOT / "BENCH_rpc.json"
        payload = json.loads(path.read_text()) if path.exists() else {
            "bench": "rpc"}
        payload.update({
            "failover_byte_identical": True,
            "failover_mode": "raise+retries=2",
            "failover_clean_audit_wall_s": round(clean_wall, 6),
            "failover_recovery_audit_wall_s": round(failover_wall, 6),
            "failover_steady_audit_wall_s": round(steady_wall, 6),
            "failover_redispatches": sum(audited.retries.values()),
            "failover_recovery_overhead_x": round(
                failover_wall / max(clean_wall, 1e-9), 2),
        })
        path.write_text(json.dumps(payload, indent=2) + "\n")
    finally:
        for worker in workers:
            worker.stop()
        close_connection_pools()
        reset_host_health()
