"""Gateway service floors: byte-identity, throughput, and the
shard-lock concurrency speedup over real HTTP.

Three phases against live :class:`~repro.gateway.GatewayServer`
deployments:

* **byte-identity** (the hard floor) — a deterministic single-tenant
  sequence issued through :class:`~repro.gateway.GatewayClient` must
  return receipts, verdicts, and audit reports ``==`` to the same
  sequence run directly on an identically seeded in-process
  ``FleetStore`` twin, and leave every member store at the identical
  :func:`~repro.parallel.session.store_fingerprint` — the HTTP edge
  adds authentication and JSON, never drift;
* **shard-parallel hammer** — one tenant per member, each on its own
  connection and thread, with every object pinned (by ring probing)
  to its tenant's member: the member footprints are disjoint, so
  the gateway's shard locks overlap the entire workload across
  cores.  After the threads join, the members must be
  fingerprint-identical to a serialized twin that replays each
  tenant's exact sequence — interleaving across members must not
  change a single bit of any member's state;
* **sequential baseline** — the identical tenant sequences against
  a fresh deployment, issued one tenant at a time over HTTP (what a
  serialise-everything gateway would make of them).  On hosts with
  ≥ :data:`SPEEDUP_MIN_CPUS` cores the concurrent run must sustain
  ≥ :data:`FLOORS` ``shard_speedup`` × the baseline's ops/s; on
  smaller hosts compute cannot overlap and the ratio shows little
  more than overlapped HTTP round-trip waits, so it is recorded in
  the JSON but not enforced (``cpu_count`` says which happened).

Results land in ``BENCH_gateway.json`` at the repo root.
"""

import json
import os
import threading
import time
from pathlib import Path

from repro.analysis.report import format_table
from repro.api.fleet import FleetStore
from repro.api.store import StoreConfig
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayServer,
    TokenTable,
    confine,
)
from repro.parallel.session import store_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[1]

N_MEMBERS = 4
N_TENANTS = 4  # one per member: disjoint footprints, full overlap
OBJECTS_PER_TENANT = 4
#: Large objects shift the work into the span engine's vectorised
#: device passes — the regions that actually overlap across threads.
PAYLOAD_BYTES = 24 * 1024
FLOORS = {"byte_identity": True, "gateway_ops_per_second": 5.0,
          "shard_speedup": 2.0}

#: Cores below which the shard-speedup floor is recorded, not enforced.
SPEEDUP_MIN_CPUS = 4

CONFIG = StoreConfig(total_blocks=4096, audit_log=True)


def _spec():
    entries = ["admin-tok=admin"]
    entries += [f"tok-tenant{i}=tenant{i}:rw" for i in range(N_TENANTS)]
    return ";".join(entries)


def _fingerprints(fleet):
    return [store_fingerprint(member) for member in fleet.members]


def _payload(index):
    return bytes([index + 1]) * PAYLOAD_BYTES


def _pin_names(fleet):
    """Tenant-relative object names routed to each tenant's own
    member, probed off the hash ring: tenant i's whole footprint is
    member i, so shard locking makes the tenants fully disjoint."""
    pinned = {i: [] for i in range(N_TENANTS)}
    for i in range(N_TENANTS):
        j = 0
        while len(pinned[i]) < OBJECTS_PER_TENANT:
            name = f"/load/{j}"
            if fleet.route(confine(f"tenant{i}", name)) == i:
                pinned[i].append(name)
            j += 1
            assert j < 10_000, "ring never hit the pinned member"
    return pinned


def _identity_phase(address, twin):
    """Deterministic sequence through HTTP vs the in-process twin."""
    client = GatewayClient(address, "tok-tenant0", tenant="tenant0")
    paths = [f"/ident/{i}" for i in range(4)]
    for i, path in enumerate(paths):
        info = client.put(path, _payload(0) + bytes([i]))
        assert info == twin.put(confine("tenant0", path),
                                _payload(0) + bytes([i]),
                                make_parents=True)
    receipts = client.seal_many(paths, timestamp=11)
    assert receipts == twin.seal_many(
        [confine("tenant0", p) for p in paths], timestamp=11)
    for path in paths:
        assert client.verify(path) == \
            twin.verify(confine("tenant0", path))
    admin = GatewayClient(address, "admin-tok")
    assert admin.audit() == twin.audit()
    client.close()
    admin.close()


def _tenant_sequence(client, index, names):
    """One tenant's exact op sequence; returns the op count."""
    ops = 0
    payload = _payload(index)
    for name in names:
        client.put(name, payload)
        ops += 1
    receipts = client.seal_many(names, timestamp=100 + index)
    assert len(receipts) == len(names)
    ops += 1
    for name in names:
        verdict = client.verify(name)
        assert verdict.status.value == "intact", verdict
        ops += 1
        assert client.get(name) == payload
        ops += 1
    return ops


def _replay_on_twin(twin, index, names):
    """The serialized-twin replay of :func:`_tenant_sequence`."""
    tenant = f"tenant{index}"
    payload = _payload(index)
    for name in names:
        twin.put(confine(tenant, name), payload, make_parents=True)
    twin.seal_many([confine(tenant, n) for n in names],
                   timestamp=100 + index)
    for name in names:
        assert twin.verify(confine(tenant, name)).status.value == \
            "intact"
        assert twin.get(confine(tenant, name)) == payload


def _hammer(address, pinned, concurrent):
    """Every tenant on its own connection: all at once,
    barrier-aligned, or (the baseline) one after another.
    Returns (total ops, wall seconds)."""
    errors = []
    counts = [0] * N_TENANTS
    barrier = threading.Barrier(N_TENANTS if concurrent else 1)

    def work(i):
        try:
            tenant = f"tenant{i}"
            client = GatewayClient(address, f"tok-{tenant}",
                                   tenant=tenant)
            barrier.wait(timeout=30)
            counts[i] = _tenant_sequence(client, i, pinned[i])
            client.close()
        except Exception as exc:  # surfaced by the main thread
            errors.append(f"tenant{i}: {exc!r}")

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(N_TENANTS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
        if not concurrent:
            thread.join()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    assert not errors, errors
    return sum(counts), wall


def _run_mode(concurrent, pinned):
    """Fresh identically seeded deployment, full hammer; returns
    (ops, wall, fleet)."""
    fleet = FleetStore.create(N_MEMBERS, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(_spec()))
    with GatewayServer(app) as server:
        ops, wall = _hammer(server.address, pinned, concurrent)
        admin = GatewayClient(server.address, "admin-tok")
        report = admin.audit()
        assert report.clean, report.fs_errors
        admin.close()
    return ops, wall, fleet


def test_gateway_shard_parallel_throughput(benchmark, show):
    fleet = FleetStore.create(N_MEMBERS, CONFIG)
    twin = FleetStore.create(N_MEMBERS, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(_spec()))
    with GatewayServer(app) as server:
        _identity_phase(server.address, twin)
        assert _fingerprints(fleet) == _fingerprints(twin), \
            "HTTP edge drifted from the in-process twin"
    pinned = _pin_names(twin)

    # concurrent tenants (measured by the benchmark fixture) ...
    result = {}

    def shard_run():
        result["shard"] = _run_mode(True, pinned)

    benchmark.pedantic(shard_run, rounds=1, iterations=1)
    shard_ops, shard_wall, shard_fleet = result["shard"]

    # ... must be fingerprint-identical to a serialized twin replay
    concurrent_twin = FleetStore.create(N_MEMBERS, CONFIG)
    for i in range(N_TENANTS):
        _replay_on_twin(concurrent_twin, i, pinned[i])
    concurrent_twin.audit()  # _run_mode's closing admin audit
    assert _fingerprints(shard_fleet) == _fingerprints(concurrent_twin), \
        "concurrent shard interleaving drifted from the serialized twin"

    # sequential baseline, identical workload: the same twin again
    sequential_ops, sequential_wall, sequential_fleet = \
        _run_mode(False, pinned)
    assert sequential_ops == shard_ops
    assert _fingerprints(sequential_fleet) == \
        _fingerprints(concurrent_twin)

    shard_ops_s = shard_ops / shard_wall
    sequential_ops_s = sequential_ops / sequential_wall
    speedup = shard_ops_s / sequential_ops_s
    cpus = os.cpu_count() or 1
    speedup_enforced = cpus >= SPEEDUP_MIN_CPUS

    assert shard_ops_s >= FLOORS["gateway_ops_per_second"], (
        f"gateway throughput {shard_ops_s:.2f} ops/s under the "
        f"{FLOORS['gateway_ops_per_second']} floor")
    if speedup_enforced:
        assert speedup >= FLOORS["shard_speedup"], (
            f"shard-lock speedup {speedup:.2f}x under the "
            f"{FLOORS['shard_speedup']}x floor on {cpus} cores")

    show(format_table(
        ["phase", "value", "note"],
        [["identity", "byte-identical",
          "receipts/verdicts/audit == twin"],
         ["tenants", N_TENANTS,
          f"{OBJECTS_PER_TENANT} x {PAYLOAD_BYTES >> 10} KiB each, "
          "member-pinned"],
         ["shard ops/s", round(shard_ops_s, 2),
          f"floor {FLOORS['gateway_ops_per_second']}"],
         ["sequential ops/s", round(sequential_ops_s, 2),
          "one tenant at a time over HTTP"],
         ["speedup", round(speedup, 2),
          f"floor {FLOORS['shard_speedup']}x"
          + ("" if speedup_enforced
             else f" (recorded only: {cpus} < "
                  f"{SPEEDUP_MIN_CPUS} cpus)")],
         ["concurrent identity", "byte-identical",
          "member fingerprints == serialized twin"]],
        title=f"shard-parallel gateway over loopback HTTP, "
              f"{N_MEMBERS} members, {cpus} cpus"))

    payload = {
        "bench": "gateway",
        "members": N_MEMBERS,
        "tenants": N_TENANTS,
        "objects_per_tenant": OBJECTS_PER_TENANT,
        "payload_bytes": PAYLOAD_BYTES,
        "cpu_count": cpus,
        "byte_identity": True,
        "concurrent_byte_identity": True,
        "shard_ops": shard_ops,
        "shard_wall_s": round(shard_wall, 6),
        "shard_ops_per_second": round(shard_ops_s, 3),
        "sequential_wall_s": round(sequential_wall, 6),
        "sequential_ops_per_second": round(sequential_ops_s, 3),
        "shard_speedup": round(speedup, 3),
        "shard_speedup_enforced": speedup_enforced,
        "speedup_min_cpus": SPEEDUP_MIN_CPUS,
        "final_audit_clean": True,
        "floors": FLOORS,
    }
    (REPO_ROOT / "BENCH_gateway.json").write_text(
        json.dumps(payload, indent=2) + "\n")
