"""The remote RPC fleet executor, over real loopback workers.

Four layers under test:

* **wire protocol** — framed pickle round trips, host parsing, the
  truncated-frame contract, the pre-authentication allocation bound;
* **resolution** — ``fleet_hosts`` through the full policy chain
  (explicit > ``repro.engine(fleet_hosts=...)`` > installed policy >
  ``REPRO_FLEET_HOSTS`` read lazily at dispatch) and
  ``describe_policy()`` naming the deciding layer;
* **equivalence** — every :class:`FleetStore` pass (format /
  seal_many / audit / deep audit) dispatched on ``rpc`` must be
  byte-identical to the ``serial`` reference, including RNG
  continuation on the members afterwards;
* **plumbing** — per-host walls and host naming in ``last_op``,
  connection-pool reuse, :func:`repro.parallel.close_executors`
  closing the pools, and :class:`HashRing` stability under permuted
  host lists.

Worker daemons are spawned on loopback per module (the ``workers``
fixture); every test that does not need them runs without.
"""

from __future__ import annotations

import socket
import threading
import time
from functools import partial

import numpy as np
import pytest

import repro
import repro.api as api
from twin_racks import (all_passes, device_rack, fingerprints,
                        object_rack, seal_lines, sealed_device_rack)
from repro.api.fleet import FleetStore
from repro.api.policy import ExecutionPolicy
from repro.api.store import TamperEvidentStore
from repro.errors import ConfigurationError
from repro.parallel import (
    HashRing,
    RpcConnectionError,
    RpcExecutor,
    close_connection_pools,
    close_executors,
    parse_hosts,
    spawn_local_worker,
)
from repro.parallel import remote as remote_mod
from repro.parallel.remote import (
    _pooled_connections,
    ping,
    recv_frame,
    send_frame,
)


@pytest.fixture(autouse=True)
def _clean_policy_env(monkeypatch):
    # the CI remote-fleet job exports REPRO_FLEET_EXECUTOR/HOSTS for
    # the example run; these tests manage their own workers and must
    # see the documented defaults
    monkeypatch.delenv(api.EXECUTOR_ENV_VAR, raising=False)
    monkeypatch.delenv(api.FLEET_HOSTS_ENV_VAR, raising=False)
    monkeypatch.delenv(api.FLEET_SECRET_ENV_VAR, raising=False)
    yield
    api.set_policy(None)


# -- wire protocol -------------------------------------------------------------


def test_parse_hosts_canonicalises():
    assert parse_hosts("b:2,a:1") == ("a:1", "b:2")
    assert parse_hosts("a:1, b:2") == ("a:1", "b:2")
    for bad in ("", "nohost", "host:", "host:notaport", "host:70000"):
        with pytest.raises(ConfigurationError):
            parse_hosts(bad)


def test_parse_hosts_rejects_duplicates():
    """A duplicated host:port would silently skew HashRing placement
    weights (and double-count its health): loud error instead."""
    with pytest.raises(ConfigurationError, match="duplicate fleet host"):
        parse_hosts(["b:2", "a:1", "a:1"])
    with pytest.raises(ConfigurationError, match="duplicate fleet host"):
        parse_hosts("a:1,b:2,a:1")
    # spelled differently but the same canonical endpoint
    with pytest.raises(ConfigurationError, match="duplicate fleet host"):
        parse_hosts(["a:1", " a:1 "])


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        message = {"snapshot": np.arange(5), "n": 7}
        send_frame(a, message)
        out = recv_frame(b)
        assert out["n"] == 7
        assert np.array_equal(out["snapshot"], np.arange(5))
    finally:
        a.close()
        b.close()


def test_truncated_frame_raises_connection_error():
    a, b = socket.socketpair()
    try:
        a.sendall(b"SRPC" + (200).to_bytes(8, "big") + b"only a little")
        a.close()
        with pytest.raises(RpcConnectionError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


@pytest.mark.parametrize("secret", [None, "hunter2"])
def test_oversized_segment_total_refused_before_allocation(
        monkeypatch, secret):
    """The frame cap bounds body *plus* segments: a header whose
    segment lengths only add up past it is refused before the
    receiver allocates a byte for them — signed or not, since the
    lengths are read ahead of the HMAC check either way."""
    from repro.parallel import RpcProtocolError

    allocated = []
    monkeypatch.setattr(remote_mod, "MAX_FRAME_BYTES", 4096)
    monkeypatch.setattr(
        remote_mod, "bytearray",
        lambda n: allocated.append(n) or bytearray(n), raising=False)
    magic = b"SRPC" if secret is None else b"SRPH"
    body = b"\x00" * 3000
    a, b = socket.socketpair()
    try:
        # each length alone is under the cap; body + segment is not
        a.sendall(magic + len(body).to_bytes(8, "big") + body
                  + (1).to_bytes(4, "big") + (2000).to_bytes(8, "big"))
        a.close()
        with pytest.raises(RpcProtocolError, match="cap"):
            recv_frame(b, secret=secret)
        assert allocated == []
    finally:
        b.close()


def test_ping_and_worker_pid(workers):
    pids = {addr: ping(addr) for addr in workers}
    assert all(isinstance(pid, int) and pid > 0 for pid in pids.values())
    assert len(set(pids.values())) == 2  # two distinct daemons


# -- resolution chain ----------------------------------------------------------


def test_fleet_hosts_resolution_layers(monkeypatch):
    monkeypatch.delenv(api.FLEET_HOSTS_ENV_VAR, raising=False)
    assert api.resolve_fleet_hosts() == (None, "default")

    monkeypatch.setenv(api.FLEET_HOSTS_ENV_VAR, "h2:2,h1:1")
    assert api.resolve_fleet_hosts() == (("h1:1", "h2:2"), "env")

    api.set_policy(ExecutionPolicy(fleet_hosts=("p1:1",)))
    assert api.resolve_fleet_hosts() == (("p1:1",), "policy")

    with repro.engine(fleet_hosts=("c1:1", "c2:2")):
        assert api.resolve_fleet_hosts() == (("c1:1", "c2:2"), "context")
        d = api.describe_policy()
        assert d["fleet_hosts"] == ("c1:1", "c2:2")
        assert d["fleet_hosts_source"] == "context"

    assert api.resolve_fleet_hosts("x:9") == (("x:9",), "explicit")


def test_policy_validates_and_canonicalises_hosts():
    policy = ExecutionPolicy(fleet_hosts=("b:2", "a:1"))
    assert policy.fleet_hosts == ("a:1", "b:2")
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(fleet_hosts=("not-a-host",))


def test_rpc_without_hosts_is_a_descriptive_error(monkeypatch):
    monkeypatch.delenv(api.FLEET_HOSTS_ENV_VAR, raising=False)
    fleet = device_rack("rpc", n=2, blocks=16)
    with pytest.raises(ConfigurationError, match="REPRO_FLEET_HOSTS"):
        fleet.format_devices()


def test_env_hosts_read_lazily_after_scheduler_built(workers, monkeypatch):
    """Exporting REPRO_FLEET_EXECUTOR=rpc + REPRO_FLEET_HOSTS after
    the fleet exists must still dispatch remotely."""
    monkeypatch.delenv(api.EXECUTOR_ENV_VAR, raising=False)
    monkeypatch.delenv(api.FLEET_HOSTS_ENV_VAR, raising=False)
    fleet = device_rack(n=2, blocks=16)
    fleet.format_devices()
    assert fleet.last_op.executor == "serial"
    monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "rpc")
    monkeypatch.setenv(api.FLEET_HOSTS_ENV_VAR, ",".join(workers))
    fleet.audit()
    assert fleet.last_op.executor == "rpc"
    assert fleet.last_op.hosts == tuple(sorted(workers))


def test_engine_context_selects_rpc(workers):
    fleet = device_rack(n=2, blocks=16)
    with repro.engine(executor="rpc", fleet_hosts=workers):
        fleet.format_devices()
    assert fleet.last_op.executor == "rpc"
    assert fleet.last_op.hosts == tuple(sorted(workers))
    fleet.audit()
    assert fleet.last_op.executor == "serial"  # scope ended


# -- equivalence ---------------------------------------------------------------


def test_rpc_passes_byte_identical_vs_serial(workers):
    """The acceptance criterion: format/seal_many/audit/deep-audit
    reports and member fingerprints under ``rpc`` match the serial
    executor byte for byte."""
    assert all_passes("serial") == all_passes(RpcExecutor(workers))


def test_rpc_reinstalls_member_state_exactly(workers):
    """After an rpc pass the caller's members carry the worker-side
    state (medium arrays, RNG position) exactly as a serial pass
    would have left them — and the *next* pass still agrees."""
    serial = sealed_device_rack("serial", n=2)
    remote = sealed_device_rack(RpcExecutor(workers), n=2)
    assert serial.audit() == remote.audit()
    for s_store, r_store in zip(serial.members, remote.members):
        s_dev, r_dev = s_store.device, r_store.device
        assert s_dev.heated_lines == r_dev.heated_lines
        assert np.array_equal(s_dev.medium._mag, r_dev.medium._mag)
        assert np.array_equal(s_dev.medium._sharpness,
                              r_dev.medium._sharpness)
        assert s_dev.medium._rng.bit_generator.state == \
            r_dev.medium._rng.bit_generator.state
    assert serial.audit() == remote.audit()
    assert fingerprints(serial) == fingerprints(remote)


def test_rpc_keeps_caller_references_live(workers):
    """Caller-held member/device/medium objects must see the mutating
    rpc-pass results in place (the adopt_state contract)."""
    fleet, paths = object_rack(RpcExecutor(workers))
    held_store = fleet.members[0]
    held_device = held_store.device
    held_medium = held_device.medium
    fleet.seal_many(paths)
    assert fleet.members[0] is held_store
    assert held_store.device is held_device
    assert held_device.medium is held_medium
    assert len(held_device.heated_lines) == \
        sum(fleet.route(path) == 0 for path in paths) > 0
    assert held_medium.heated_count() > 0


def test_fleet_store_surface_over_rpc(workers):
    """FleetStore seal_many/audit through the rpc executor: same
    receipts and verdicts as serial, hosts named in last_op."""
    fleet_a, paths = object_rack()
    receipts_serial = fleet_a.seal_many(paths)
    audit_serial = fleet_a.audit()

    fleet_b, _ = object_rack()
    with repro.engine(executor="rpc", fleet_hosts=workers):
        receipts_rpc = fleet_b.seal_many(paths)
        audit_rpc = fleet_b.audit()
    assert receipts_rpc == receipts_serial
    assert audit_rpc == audit_serial
    assert fingerprints(fleet_b) == fingerprints(fleet_a)
    assert fleet_b.last_op.executor == "rpc"
    assert fleet_b.last_op.hosts == tuple(sorted(workers))


# -- sessions ------------------------------------------------------------------


def test_session_passes_byte_identical_vs_serial(workers):
    """Acceptance: steady (already pinned) passes match the serial
    reference byte for byte, and their audit traffic is
    descriptor-sized, not snapshot-sized."""
    serial = sealed_device_rack("serial")
    pinned = sealed_device_rack(RpcExecutor(workers))
    assert serial.audit() == pinned.audit()  # re-pins the sealed lines
    # the pins are warm: this audit sends only task descriptors
    report = pinned.audit(deep=True)
    stats = pinned.last_op
    assert set(stats.bytes_out) <= set(workers)
    assert sum(stats.bytes_out.values()) < 8_000
    assert sum(stats.bytes_back.values()) > 0
    assert serial.audit(deep=True) == report
    assert fingerprints(serial) == fingerprints(pinned)


def test_session_rng_continuation(workers):
    """After steady (already pinned) passes the caller-held members
    carry the exact medium arrays and RNG position of the serial twin
    — and the next pass continues from them identically."""
    serial = sealed_device_rack("serial", n=2)
    pinned = sealed_device_rack(RpcExecutor(workers), n=2)
    for fleet in (serial, pinned):
        for _ in range(3):  # the second and third ride warm pins
            fleet.audit()
    for s_store, p_store in zip(serial.members, pinned.members):
        s_dev, p_dev = s_store.device, p_store.device
        assert s_dev.heated_lines == p_dev.heated_lines
        assert np.array_equal(s_dev.medium._mag, p_dev.medium._mag)
        assert s_dev.medium._rng.bit_generator.state == \
            p_dev.medium._rng.bit_generator.state
    assert serial.audit() == pinned.audit()
    assert fingerprints(serial) == fingerprints(pinned)


def test_session_reports_wire_traffic(workers):
    """FleetOpStats exposes per-host bytes: snapshot-sized while
    pinning, then orders of magnitude down once pinned."""
    fleet = device_rack(RpcExecutor(workers), n=2)
    fleet.format_devices()
    pin_bytes = sum(fleet.last_op.bytes_out.values())
    assert set(fleet.last_op.bytes_back) <= set(workers)
    seal_lines(fleet)
    fleet.audit()  # the client-side seal re-pins: snapshot-sized again
    assert sum(fleet.last_op.bytes_out.values()) > pin_bytes / 2
    fleet.audit()
    steady_bytes = sum(fleet.last_op.bytes_out.values())
    assert pin_bytes > 50 * steady_bytes


def test_session_fleet_store_surface(workers):
    """The FleetStore object surface (seal_many/audit) rides sessions
    transparently and records byte counters in last_op: the pinning
    seal_many ships snapshots, the audit after it only descriptors."""
    fleet_a, paths = object_rack()
    receipts_serial = fleet_a.seal_many(paths)
    audit_serial = fleet_a.audit()

    fleet_b, _ = object_rack()
    with repro.engine(executor="rpc", fleet_hosts=workers):
        receipts_rpc = fleet_b.seal_many(paths)
        cold_bytes = sum(fleet_b.last_op.bytes_out.values())
        audit_rpc = fleet_b.audit()
    assert receipts_rpc == receipts_serial
    assert audit_rpc == audit_serial
    assert fingerprints(fleet_b) == fingerprints(fleet_a)
    assert 0 < sum(fleet_b.last_op.bytes_out.values()) < cold_bytes / 10


# -- reporting plumbing --------------------------------------------------------


def test_report_names_hosts_and_per_host_walls(workers):
    fleet = device_rack(RpcExecutor(workers))
    fleet.audit()
    stats = fleet.last_op
    assert stats.executor == "rpc"
    assert stats.hosts == tuple(sorted(workers))
    assert sum(w.tasks for w in stats.worker_walls) == 3
    for wall in stats.worker_walls:
        host = wall.worker.removeprefix("rpc-")
        assert host in workers
        assert wall.wall_seconds >= 0.0


def test_serial_reports_have_no_hosts():
    fleet = device_rack(n=1, blocks=16)
    fleet.format_devices()
    assert fleet.last_op.hosts == ()


# -- connection pooling --------------------------------------------------------


def test_connection_pool_reused_between_passes(workers):
    close_connection_pools()
    fleet = device_rack(RpcExecutor(workers), n=4, blocks=16)
    fleet.format_devices()
    pooled_after_first = _pooled_connections()
    assert pooled_after_first >= 1
    fleet.audit()
    # the second pass reuses the warm sockets instead of stacking more
    assert _pooled_connections() <= pooled_after_first + len(workers)


def test_close_executors_closes_rpc_pools(workers):
    """Regression: close_executors() must release the module-wide rpc
    connection pool even when no rpc instance was ever cached in the
    executor-instance registry (explicit instances bypass it)."""
    close_connection_pools()
    fleet = device_rack(RpcExecutor(workers), n=2, blocks=16)
    fleet.format_devices()
    assert _pooled_connections() > 0
    close_executors()
    assert _pooled_connections() == 0
    # and the next pass simply dials fresh connections
    fleet.audit()
    assert fleet.last_op.executor == "rpc"


def test_call_worker_reconnects_after_stale_pooled_socket(workers):
    """A pooled socket whose peer vanished is redialled transparently
    when the failure happens before the request is delivered."""
    addr = workers[0]
    assert isinstance(ping(addr), int)  # leaves a pooled connection
    # sabotage: shut down every pooled socket to this worker locally
    with remote_mod._POOL_LOCK:
        for sock in remote_mod._POOL.get(addr, []):
            sock.shutdown(socket.SHUT_RDWR)
    assert isinstance(ping(addr), int)  # reconnect, not an error


def test_worker_replies_without_nagle():
    """Both ends set TCP_NODELAY: a reply longer than one segment must
    not hold its tail until the client's delayed ACK (40 ms)."""
    seen = []
    answered = threading.Event()

    class Probe(remote_mod._WorkerHandler):
        def handle(self):
            seen.append(self.request.getsockopt(socket.IPPROTO_TCP,
                                                socket.TCP_NODELAY))
            answered.set()

    with remote_mod._WorkerServer(("127.0.0.1", 0), Probe) as server:
        with socket.create_connection(server.server_address):
            server.handle_request()
            assert answered.wait(5.0)
    assert seen and seen[0]


# -- host assignment stability -------------------------------------------------


def test_hash_ring_stable_under_host_order():
    """Satellite: the ring is a pure function of the host *set* — two
    nodes configured with the same hosts in different orders must
    route every key identically."""
    hosts = [f"10.0.0.{i}:7401" for i in range(1, 6)]
    ring_a = HashRing(hosts)
    ring_b = HashRing(list(reversed(hosts)))
    ring_c = HashRing(hosts[2:] + hosts[:2])
    keys = [f"member-{i}" for i in range(300)]
    route_a = [ring_a.lookup(k) for k in keys]
    assert route_a == [ring_b.lookup(k) for k in keys]
    assert route_a == [ring_c.lookup(k) for k in keys]
    # and the successor walks agree too (capability fallback path)
    for key in keys[:20]:
        assert list(ring_a.successors(key)) == list(ring_b.successors(key))


def test_rpc_assignment_stable_under_host_order(workers):
    """The executor canonicalises its host list, so permuted configs
    dispatch every member to the same worker."""
    from functools import partial

    a = RpcExecutor(list(workers))
    b = RpcExecutor(list(reversed(workers)))
    assert a.hosts == b.hosts
    tasks = [partial(divmod, 7, 3)] * 5  # picklable placeholder tasks
    run_a, run_b = a.run(tasks), b.run(tasks)
    assert run_a.assignments == run_b.assignments
    assert run_a.results == [(2, 1)] * 5


# -- migration (rebalance) -----------------------------------------------------


def test_migrate_unsealed_restores_exact_routing():
    fleet = FleetStore.create(2, total_blocks=192, seed=61)
    paths = [f"/m{i}" for i in range(16)]
    for path in paths:
        fleet.put(path, path.encode() * 4)
    before = {p: fleet.route(p) for p in paths}
    while True:  # grow until at least one key remaps
        fleet.add_member(TamperEvidentStore.create(total_blocks=192))
        moved = [p for p in paths if fleet.route(p) != before[p]]
        if moved:
            break
    report = fleet.migrate_unsealed()
    assert report.moved >= len(moved)
    assert report.sealed_kept == 0
    assert report.routing_exact
    # objects now live on their routed member: reads touch nobody else
    for path in paths:
        index = fleet.route(path)
        others = [i for i in range(fleet.member_count) if i != index]
        counters = [dict(fleet.members[i].device.medium.counters)
                    for i in others]
        assert fleet.get(path) == path.encode() * 4
        assert [dict(fleet.members[i].device.medium.counters)
                for i in others] == counters
    # and a second pass is a no-op
    again = fleet.migrate_unsealed()
    assert again.moved == 0
    assert again.routing_exact


def test_migrate_skips_member_local_namespaces():
    """Evidence bags and instruction-log chunks are member-local (not
    ring-routed), so they must neither move nor block routing_exact."""
    fleet = FleetStore.create(2, total_blocks=256, seed=81,
                              audit_log=True, audit_rotate_bytes=64)
    paths = [f"/u{i}" for i in range(8)]
    for path in paths:  # enough traffic to rotate sealed log chunks
        fleet.put(path, b"z" * 16)
    export = fleet.export_evidence(
        "case-a", {f"ex-{i}": bytes([i]) * 32 for i in range(4)})
    assert export.intact
    fleet.add_member(TamperEvidentStore.create(total_blocks=256))
    report = fleet.migrate_unsealed()
    # the sealed evidence/log files are not counted as stranded fleet
    # objects: exact routing comes back for the real keyspace
    assert report.sealed_kept == 0
    assert report.routing_exact
    for path in paths:
        assert fleet.get(path) == b"z" * 16
    assert fleet.audit().clean  # bags and log chunks sealed in place


def test_describe_policy_does_not_load_wire_protocol():
    """describe_policy() is a diagnostics call; with no rpc usage it
    must not import the wire-protocol module."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env.pop(api.FLEET_HOSTS_ENV_VAR, None)
    env.pop(api.EXECUTOR_ENV_VAR, None)
    code = ("import sys, repro.api as api; api.describe_policy(); "
            "assert 'repro.parallel.remote' not in sys.modules, "
            "'wire protocol loaded eagerly'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_migrate_unsealed_refuses_sealed_objects():
    fleet = FleetStore.create(2, total_blocks=256, seed=71)
    paths = [f"/s{i}" for i in range(12)]
    for path in paths:
        fleet.put(path, b"x" * 64)
    fleet.seal_many(paths)
    homes = {p: fleet._locate(p)[0] for p in paths}
    before = {p: fleet.route(p) for p in paths}
    while True:
        fleet.add_member(TamperEvidentStore.create(total_blocks=256))
        stranded = [p for p in paths if fleet.route(p) != before[p]]
        if stranded:
            break
    report = fleet.migrate_unsealed()
    assert report.sealed_kept >= len(stranded)
    assert report.moved == 0  # nothing unsealed to move
    assert not report.routing_exact  # fallback must stay on
    for path in paths:  # sealed lines stay put and stay readable
        assert fleet._locate(path)[0] == homes[path]
        assert fleet.verify(path).intact


# -- fault policy & health -----------------------------------------------------


def test_fleet_fault_policy_resolution_layers(monkeypatch):
    """fleet_timeout / fleet_retries / fleet_on_failure through the
    five-layer chain, with describe_policy naming the deciding layer."""
    for var in (api.FLEET_TIMEOUT_ENV_VAR, api.FLEET_RETRIES_ENV_VAR,
                api.FLEET_ON_FAILURE_ENV_VAR):
        monkeypatch.delenv(var, raising=False)
    assert api.resolve_fleet_timeout() == (None, "default")
    assert api.resolve_fleet_retries() == (0, "default")
    assert api.resolve_fleet_on_failure() == ("raise", "default")

    monkeypatch.setenv(api.FLEET_TIMEOUT_ENV_VAR, "2.5")
    monkeypatch.setenv(api.FLEET_RETRIES_ENV_VAR, "3")
    monkeypatch.setenv(api.FLEET_ON_FAILURE_ENV_VAR, "degrade")
    assert api.resolve_fleet_timeout() == (2.5, "env")
    assert api.resolve_fleet_retries() == (3, "env")
    assert api.resolve_fleet_on_failure() == ("degrade", "env")
    # 0 is an explicit env disable for the deadline
    monkeypatch.setenv(api.FLEET_TIMEOUT_ENV_VAR, "0")
    assert api.resolve_fleet_timeout() == (None, "env")
    # garbage env values are ignored, like the other fleet switches
    monkeypatch.setenv(api.FLEET_RETRIES_ENV_VAR, "-2")
    assert api.resolve_fleet_retries() == (0, "default")
    monkeypatch.setenv(api.FLEET_ON_FAILURE_ENV_VAR, "explode")
    assert api.resolve_fleet_on_failure() == ("raise", "default")

    api.set_policy(ExecutionPolicy(fleet_timeout=7.0, fleet_retries=1,
                                   fleet_on_failure="degrade"))
    assert api.resolve_fleet_timeout() == (7.0, "policy")
    assert api.resolve_fleet_retries() == (1, "policy")
    assert api.resolve_fleet_on_failure() == ("degrade", "policy")

    with repro.engine(fleet_timeout=0.5, fleet_retries=2,
                      fleet_on_failure="raise"):
        assert api.resolve_fleet_timeout() == (0.5, "context")
        assert api.resolve_fleet_retries() == (2, "context")
        assert api.resolve_fleet_on_failure() == ("raise", "context")
        d = api.describe_policy()
        assert d["fleet_timeout"] == 0.5
        assert d["fleet_timeout_source"] == "context"
        assert d["fleet_retries"] == 2
        assert d["fleet_retries_source"] == "context"
        assert d["fleet_on_failure"] == "raise"
        assert d["fleet_on_failure_source"] == "context"

    assert api.resolve_fleet_timeout(1.5) == (1.5, "explicit")
    assert api.resolve_fleet_retries(4) == (4, "explicit")
    assert api.resolve_fleet_on_failure("degrade") == \
        ("degrade", "explicit")

    with pytest.raises(ValueError):
        api.resolve_fleet_timeout(-1.0)
    with pytest.raises(ValueError):
        api.resolve_fleet_retries(-1)
    with pytest.raises(ValueError):
        api.resolve_fleet_on_failure("explode")
    with pytest.raises(ValueError):
        ExecutionPolicy(fleet_timeout=0)
    with pytest.raises(ValueError):
        ExecutionPolicy(fleet_retries=-1)
    with pytest.raises(ValueError):
        ExecutionPolicy(fleet_on_failure="abort")
    with pytest.raises(TypeError):
        ExecutionPolicy(fleet_retries=1.5)


def test_request_deadline_times_out_on_hung_worker():
    """A server that accepts and then goes silent must surface as
    RpcTimeoutError (an RpcConnectionError subclass) within the
    request deadline, not block forever."""
    from repro.parallel import RpcTimeoutError
    from repro.parallel.remote import call_worker

    gate = threading.Event()
    server = socket.create_server(("127.0.0.1", 0))
    addr = f"127.0.0.1:{server.getsockname()[1]}"

    def hang():
        conn, _peer = server.accept()
        gate.wait(10)  # never replies
        conn.close()

    thread = threading.Thread(target=hang, daemon=True)
    thread.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(RpcTimeoutError, match="deadline"):
            call_worker(addr, ("ping",), deadline=0.4)
        assert time.monotonic() - t0 < 5.0
        assert isinstance(RpcTimeoutError("x"), RpcConnectionError)
    finally:
        gate.set()
        server.close()
        close_connection_pools()


def test_executor_timeout_surfaces_as_rpc_timeout():
    """RpcExecutor(timeout=...) applies the per-request deadline to
    dispatched passes: a hung 'worker' fails the pass with
    RpcTimeoutError instead of hanging it."""
    from repro.parallel import RpcTimeoutError

    gate = threading.Event()
    server = socket.create_server(("127.0.0.1", 0))
    addr = f"127.0.0.1:{server.getsockname()[1]}"

    def hang():
        while not gate.is_set():
            try:
                server.settimeout(0.2)
                conn, _peer = server.accept()
            except (socket.timeout, OSError):
                continue
            # read and discard the request, never answer
            threading.Thread(target=gate.wait, args=(10,),
                             daemon=True).start()

    thread = threading.Thread(target=hang, daemon=True)
    thread.start()
    try:
        executor = RpcExecutor([addr], timeout=0.4)
        with pytest.raises(RpcTimeoutError):
            executor.run([partial(int, 1)])
    finally:
        gate.set()
        server.close()
        close_connection_pools()
        from repro.parallel import reset_host_health

        reset_host_health()


def test_health_breaker_opens_and_reprobes(workers):
    """Three consecutive failures open a host's breaker; usable_hosts
    skips it during probation, then one successful probe re-admits a
    live host immediately under force_probe."""
    from repro.parallel import host_health_snapshot, reset_host_health
    from repro.parallel.remote import (
        HEALTH_FAILURE_THRESHOLD,
        record_host_failure,
        record_host_success,
        usable_hosts,
    )

    live = workers[0]
    dead = "127.0.0.1:1"  # reserved port: nothing listens
    reset_host_health()
    try:
        assert usable_hosts((live, dead)) == (live, dead)
        for _ in range(HEALTH_FAILURE_THRESHOLD):
            record_host_failure(dead, timed_out=True)
        # breaker open: the dead host is skipped during probation
        assert usable_hosts((live, dead)) == (live,)
        snap = host_health_snapshot()
        assert snap[dead]["breaker_open"] is True
        assert snap[dead]["total_timeouts"] == HEALTH_FAILURE_THRESHOLD
        # desperation probe: still dead, stays out
        assert usable_hosts((dead,), probe_timeout=0.3,
                            force_probe=True) == ()
        # a LIVE host with an open breaker is re-admitted by the probe
        for _ in range(HEALTH_FAILURE_THRESHOLD):
            record_host_failure(live)
        assert usable_hosts((live,)) == ()
        assert usable_hosts((live,), force_probe=True) == (live,)
        assert host_health_snapshot()[live]["breaker_open"] is False
        record_host_success(live)
    finally:
        reset_host_health()


def test_failover_members_replace_on_surviving_hosts():
    """Failover: with retries budgeted, a host killed
    before the pass loses its members to the survivors and the pass
    completes byte-identical to serial — the acceptance floor."""
    from repro.parallel import reset_host_health

    worker_a, worker_b = spawn_local_worker(), spawn_local_worker()
    reset_host_health()
    try:
        executor = RpcExecutor([worker_a.address, worker_b.address],
                               retries=2)
        serial, fleet = device_rack("serial"), device_rack(executor)
        twin_objects, paths = object_rack("serial")
        objects, _ = object_rack(executor)
        assert fleet.format_devices() == serial.format_devices()
        worker_b.kill()
        for rack in (serial, fleet):
            seal_lines(rack)
        assert fleet.audit() == serial.audit()
        # the failed host was charged its failover re-dispatches
        assert sum(fleet.last_op.retries.values()) >= 0  # stats present
        assert objects.seal_many(paths) == twin_objects.seal_many(paths)
        assert fleet.audit(deep=True) == serial.audit(deep=True)
        assert objects.audit(deep=True) == twin_objects.audit(deep=True)
        assert fingerprints(fleet) == fingerprints(serial)
        assert fingerprints(objects) == fingerprints(twin_objects)
    finally:
        worker_a.stop()
        worker_b.stop()
        close_connection_pools()
        reset_host_health()


# -- HMAC-signed frames (ISSUE 8) ----------------------------------------------


def test_signed_frame_roundtrip_and_wrong_secret_rejected():
    from repro.parallel import RpcProtocolError

    a, b = socket.socketpair()
    try:
        message = {"snapshot": np.arange(5), "n": 7}
        send_frame(a, message, secret="hunter2")
        out = recv_frame(b, secret="hunter2")
        assert out["n"] == 7
        assert np.array_equal(out["snapshot"], np.arange(5))
        # a peer holding a different secret must reject the frame
        # *before* unpickling anything
        send_frame(a, message, secret="hunter2")
        with pytest.raises(RpcProtocolError, match="signature"):
            recv_frame(b, secret="not-hunter2")
    finally:
        a.close()
        b.close()


def test_signing_expectation_mismatches_rejected():
    from repro.parallel import RpcProtocolError

    # unsigned frame at a secret-holding peer
    a, b = socket.socketpair()
    try:
        send_frame(a, {"n": 1}, secret=None)
        with pytest.raises(RpcProtocolError, match="unsigned"):
            recv_frame(b, secret="hunter2")
    finally:
        a.close()
        b.close()
    # signed frame at a secretless peer
    a, b = socket.socketpair()
    try:
        send_frame(a, {"n": 1}, secret="hunter2")
        with pytest.raises(RpcProtocolError, match="no fleet secret"):
            recv_frame(b, secret=None)
    finally:
        a.close()
        b.close()


def test_worker_with_secret_rejects_unsigned_and_wrong_secret():
    from repro.parallel import reset_host_health

    worker = spawn_local_worker(secret="hunter2")
    reset_host_health()
    try:
        # the right secret answers normally
        assert ping(worker.address, secret="hunter2") > 0
        # unsigned and wrong-secret callers see only a dropped
        # connection — the worker never answers an unauthenticated
        # frame, not even with an error
        with pytest.raises(RpcConnectionError):
            ping(worker.address, timeout=2.0, secret=None)
        with pytest.raises(RpcConnectionError):
            ping(worker.address, timeout=2.0, secret="wrong")
        # and the worker survives the rejected frames
        assert ping(worker.address, secret="hunter2") > 0
    finally:
        worker.stop()
        close_connection_pools()
        reset_host_health()


def test_serve_refuses_unsigned_non_loopback_bind(monkeypatch):
    """An unsigned worker unpickles whatever reaches its port, so
    serving one beyond loopback is refused before the socket exists;
    with a secret exported the same bind announces, and loopback
    stays unsigned-permissive."""
    class Announced(Exception):
        pass

    def announce(line):
        raise Announced(line)  # leave serve() once it is listening

    bound = []
    real_server = remote_mod._WorkerServer
    monkeypatch.setattr(
        remote_mod, "_WorkerServer",
        lambda *args: bound.append(args) or real_server(*args))
    with pytest.raises(ConfigurationError, match="REPRO_FLEET_SECRET"):
        remote_mod.serve("0.0.0.0:0", announce=announce)
    assert bound == []
    with pytest.raises(Announced, match="SRPC listening on 127.0.0.1:"):
        remote_mod.serve("127.0.0.1:0", announce=announce)
    monkeypatch.setenv(api.FLEET_SECRET_ENV_VAR, "hunter2")
    with pytest.raises(Announced, match="SRPC listening on 0.0.0.0:"):
        remote_mod.serve("0.0.0.0:0", announce=announce)


def test_fleet_passes_byte_identical_over_signed_frames():
    from repro.parallel import reset_host_health

    spawned = [spawn_local_worker(secret="fleet-hmac-key")
               for _ in range(2)]
    reset_host_health()
    try:
        hosts = [w.address for w in spawned]
        assert all_passes(RpcExecutor(hosts, secret="fleet-hmac-key")) \
            == all_passes("serial")
    finally:
        for worker in spawned:
            worker.stop()
        close_connection_pools()
        reset_host_health()


def test_fleet_secret_env_layer_reaches_both_ends(monkeypatch):
    """Deployment story: export REPRO_FLEET_SECRET and both the
    spawned worker (env inheritance) and the ambient client (policy
    chain, read lazily per call) sign without any explicit wiring."""
    from repro.parallel import reset_host_health

    worker = spawn_local_worker(secret="ambient-key")
    reset_host_health()
    try:
        monkeypatch.setenv(api.FLEET_SECRET_ENV_VAR, "ambient-key")
        assert ping(worker.address) > 0  # ambient → resolves via env
        monkeypatch.setenv(api.FLEET_SECRET_ENV_VAR, "rotated-away")
        with pytest.raises(RpcConnectionError):
            ping(worker.address, timeout=2.0)
    finally:
        worker.stop()
        close_connection_pools()
        reset_host_health()


def test_explicit_secret_beats_context_and_policy(workers):
    """Chain order for fleet_secret: RpcExecutor(secret=) > context >
    policy > env.  The module workers are unsigned, so the *wrong*
    layer winning shows up as a dropped connection."""
    from repro.parallel import reset_host_health

    reset_host_health()
    addr = workers[0]
    try:
        # context says signed, explicit arg says unsigned: explicit
        # wins and the unsigned worker answers
        with repro.engine(fleet_secret="context-key"):
            executor = RpcExecutor([addr])
            assert executor._resolve_fault_policy()[3] == "context-key"
            assert RpcExecutor([addr], secret="k")\
                ._resolve_fault_policy()[3] == "k"
        api.set_policy(api.ExecutionPolicy(fleet_secret="policy-key"))
        assert RpcExecutor([addr])._resolve_fault_policy()[3] == \
            "policy-key"
        with repro.engine(fleet_secret="context-key"):
            assert RpcExecutor([addr])._resolve_fault_policy()[3] == \
                "context-key"
    finally:
        api.set_policy(None)
        reset_host_health()
