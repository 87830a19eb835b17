"""The remote RPC fleet executor, over real loopback workers.

Four layers under test:

* **wire protocol** — framed pickle round trips, the frame layout and
  the ``(request id, verb)`` envelope, host parsing, the
  truncated-frame contract, the pre-authentication allocation bound,
  probes that bound their own time and leave the pass pool alone;
* **resolution** — ``fleet_hosts`` through the full policy chain
  (explicit > ``repro.engine(fleet_hosts=...)`` > installed policy >
  ``REPRO_FLEET_HOSTS`` read lazily at dispatch) and
  ``describe_policy()`` naming the deciding layer;
* **equivalence** — every :class:`FleetStore` pass (format /
  seal_many / audit / deep audit) dispatched on ``rpc`` must be
  byte-identical to the ``serial`` reference, including RNG
  continuation on the members afterwards;
* **plumbing** — host naming and per-host wire bytes in ``last_op``,
  the member-task contract, connection-pool reuse,
  :func:`repro.parallel.close_executors` closing the pools, and
  :class:`HashRing` stability under permuted host lists.

Worker daemons are spawned on loopback per module (the ``workers``
fixture); every test that does not need them runs without.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.api as api
from twin_racks import (all_passes, device_rack, fingerprints,
                        object_rack, seal_lines, sealed_device_rack)
from repro.api.fleet import FleetStore
from repro.api.policy import ExecutionPolicy, resolve
from repro.api.store import TamperEvidentStore
from repro.errors import ConfigurationError
from repro.parallel import (
    HashRing,
    MemberTask,
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
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    monkeypatch.delenv("REPRO_FLEET_SECRET", raising=False)
    yield
    api.set_policy(None)


# -- wire protocol -------------------------------------------------------------


def test_parse_hosts_canonicalises():
    assert parse_hosts("b:2,a:1") == ("a:1", "b:2")
    assert parse_hosts("a:1, b:2") == ("a:1", "b:2")
    for bad in ("", "nohost", "host:", "host:notaport", "host:70000"):
        with pytest.raises(ConfigurationError):
            parse_hosts(bad)


def test_ipv6_addresses_are_refused_before_a_socket_exists():
    """Workers and the gateway listen on IPv4 sockets only, so an IPv6
    literal is a configuration error, not a resolver error mid-serve
    or a dead host fed to the health breaker."""
    for bad in ("::1:80", "[::1]:80", "[::1]:7401,a:1"):
        with pytest.raises(ConfigurationError, match="IPv4"):
            parse_hosts(bad)
    with pytest.raises(ConfigurationError, match="IPv4"):
        remote_mod.serve("[::1]:0", announce=print)
    with pytest.raises(ConfigurationError, match="IPv4"):
        RpcExecutor(["[::1]:7401"])


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


@pytest.mark.parametrize("secret", [None, "hunter2"])
def test_frame_layout_is_header_body_digest(secret):
    """A frame on the wire is the magic, the 8-byte body length, the
    pickle body and — signed — HMAC-SHA256 over header and body;
    nothing follows.  The array is big enough that it would once have
    travelled as a buffer segment after the body."""
    message = {"snapshot": np.arange(1024), "n": 7}
    a, b = socket.socketpair()
    try:
        sent = send_frame(a, message, secret=secret)
        a.close()
        raw = bytearray()
        while chunk := b.recv(1 << 16):
            raw += chunk
    finally:
        b.close()
    body = pickle.dumps(message, protocol=5)
    header = (b"SRP2" if secret is None else b"SRH2") \
        + len(body).to_bytes(8, "big")
    digest = b"" if secret is None else hmac.new(
        secret.encode(), header + body, hashlib.sha256).digest()
    assert bytes(raw) == header + body + digest
    assert sent == len(body)


@pytest.mark.parametrize("magic", [b"SRPC", b"SRPH"])
def test_old_frame_magic_is_refused(magic):
    """10.x framed with ``SRPC``/``SRPH`` and buffer segments after the
    body: an 11.x receiver refuses such a frame on its magic, at once,
    whether or not it holds a secret."""
    from repro.parallel import RpcProtocolError

    body = pickle.dumps((0, ("ping",)), protocol=5)
    for secret in (None, "hunter2"):
        a, b = socket.socketpair()
        try:
            a.sendall(magic + len(body).to_bytes(8, "big") + body
                      + (0).to_bytes(4, "big"))
            a.close()
            with pytest.raises(RpcProtocolError,
                               match=re.escape(repr(magic))):
                recv_frame(b, secret=secret)
        finally:
            b.close()


def test_truncated_frame_raises_connection_error():
    a, b = socket.socketpair()
    try:
        a.sendall(b"SRP2" + (200).to_bytes(8, "big") + b"only a little")
        a.close()
        with pytest.raises(RpcConnectionError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


@pytest.mark.parametrize("secret", [None, "hunter2"])
def test_oversized_body_refused_before_any_body_read(secret):
    """The cap is checked on the header's length before a body byte is
    read — signed or not, since the length is parsed ahead of the HMAC
    check either way: a header promising cap + 1 bytes, then EOF, is
    refused for its size, not reported as a frame cut short."""
    from repro.parallel import RpcProtocolError

    magic = b"SRP2" if secret is None else b"SRH2"
    a, b = socket.socketpair()
    try:
        a.sendall(magic
                  + (remote_mod.MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
        a.close()
        with pytest.raises(RpcProtocolError, match="cap"):
            recv_frame(b, secret=secret)
    finally:
        b.close()


def test_frame_allocates_only_what_arrives():
    """A 14-byte prefix promising a 512 MiB body (within the default
    cap) makes the receiver hold only what arrived: it gives up on its
    socket deadline with a traced peak far below the promise."""
    import tracemalloc

    from repro.parallel import RpcTimeoutError

    assert 512 << 20 <= remote_mod.MAX_FRAME_BYTES
    a, b = socket.socketpair()
    b.settimeout(0.5)
    try:
        a.sendall(b"SRP2" + (512 << 20).to_bytes(8, "big") + b"\x80\x05")
        tracemalloc.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(RpcTimeoutError):
                recv_frame(b, secret=None)
            elapsed = time.monotonic() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        assert peak < 4 << 20
    finally:
        a.close()
        b.close()


def test_worker_drops_an_untagged_request(workers):
    """Every request is ``(request id, verb tuple)``: a bare
    ``("ping",)`` frame gets the connection closed, not a reply; a
    tagged one is answered under its id, and an unknown verb inside a
    well-formed envelope still gets a typed error reply."""
    host, port = remote_mod.parse_host(workers[0])
    with socket.create_connection((host, port), timeout=5.0) as sock:
        send_frame(sock, ("ping",), secret=None)
        with pytest.raises(EOFError):
            recv_frame(sock, secret=None)
    with socket.create_connection((host, port), timeout=5.0) as sock:
        send_frame(sock, (7, ("ping",)), secret=None)
        rid, (tag, pid) = recv_frame(sock, secret=None)
        assert (rid, tag) == (7, "pong") and pid > 0
        send_frame(sock, (8, ("bogus",)), secret=None)
        rid, response = recv_frame(sock, secret=None)
        assert rid == 8
        assert response[0] == "err" and response[2] == "RpcProtocolError"


def test_malformed_requests_get_a_typed_reply_not_a_traceback():
    """A well-framed request whose verb tuple is malformed — a 12.x
    ``("pin",)``, an unhashable key, a verb outside ``MemberTask.VERBS``
    — gets a typed ``RpcProtocolError`` reply on a connection that keeps
    serving, pins nothing, and prints no traceback on the worker; a
    body naming a global the worker lacks (a 12.x task) gets the
    connection closed, also without one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel.remote", "serve",
         "--bind", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        announce = process.stdout.readline()
        assert announce.startswith("SRPC listening on "), announce
        host, port = remote_mod.parse_host(announce.split()[-1])
        store = device_rack(n=1, blocks=16).members[0]
        key = ("client", 1)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            for rid, verb in enumerate((
                    ("pin",),
                    ("run", ["k"], 0, None, "audit", {}),
                    ("run", key, 0, None, "delete", {"path": "/x"}),
                    ("run", key, 0, store, "delete", {"path": "/x"}))):
                send_frame(sock, (rid, verb), secret=None)
                reply_id, response = recv_frame(sock, secret=None)
                assert reply_id == rid
                assert response[0] == "err", response
                assert response[2] == "RpcProtocolError"
            # the refused snapshot was never pinned
            send_frame(sock, (9, ("run", key, 0, None, "audit", {})),
                       secret=None)
            assert recv_frame(sock, secret=None) == (9, ("nopin",))
            # a snapshot that is no store fails as its task, in a reply
            send_frame(sock, (10, ("run", key, 0, 5, "audit", {})),
                       secret=None)
            reply_id, response = recv_frame(sock, secret=None)
            assert (reply_id, response[0]) == (10, "err"), response
            send_frame(sock, (11, ("ping",)), secret=None)
            assert recv_frame(sock, secret=None)[1][0] == "pong"
        body = b"crepro.api.fleet\n_audit_member\n."
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(remote_mod._HEADER.pack(b"SRP2", len(body)) + body)
            with pytest.raises(EOFError):
                recv_frame(sock, secret=None)
    finally:
        process.terminate()
        _out, err = process.communicate(timeout=10)
    assert "Traceback" not in err, err


def test_probe_honours_its_timeout():
    """``ping``'s timeout bounds the whole probe: against a refused
    port it gives up after about ``timeout`` seconds, with no pass
    dial grace nested inside each of its retries."""
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))  # bound, never listening: refused
    try:
        addr = f"127.0.0.1:{holder.getsockname()[1]}"
        t0 = time.monotonic()
        with pytest.raises(RpcConnectionError):
            ping(addr, timeout=0.3)
        assert time.monotonic() - t0 < 1.0
    finally:
        holder.close()


def test_ping_and_worker_pid(workers):
    pids = {addr: ping(addr) for addr in workers}
    assert all(isinstance(pid, int) and pid > 0 for pid in pids.values())
    assert len(set(pids.values())) == 2  # two distinct daemons


# -- resolution chain ----------------------------------------------------------


def test_fleet_hosts_resolution_layers(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    assert resolve("fleet_hosts") == (None, "default")

    monkeypatch.setenv("REPRO_FLEET_HOSTS", "h2:2,h1:1")
    assert resolve("fleet_hosts") == (("h1:1", "h2:2"), "env")

    api.set_policy(ExecutionPolicy(fleet_hosts=("p1:1",)))
    assert resolve("fleet_hosts") == (("p1:1",), "policy")

    with repro.engine(fleet_hosts=("c1:1", "c2:2")):
        assert resolve("fleet_hosts") == (("c1:1", "c2:2"), "context")
        d = api.describe_policy()
        assert d["fleet_hosts"] == ("c1:1", "c2:2")
        assert d["fleet_hosts_source"] == "context"

    assert resolve("fleet_hosts", "x:9") == (("x:9",), "explicit")


def test_policy_validates_and_canonicalises_hosts():
    policy = ExecutionPolicy(fleet_hosts=("b:2", "a:1"))
    assert policy.fleet_hosts == ("a:1", "b:2")
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(fleet_hosts=("not-a-host",))


def test_rpc_without_hosts_is_a_descriptive_error(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    fleet = device_rack("rpc", n=2, blocks=16)
    with pytest.raises(ConfigurationError, match="REPRO_FLEET_HOSTS"):
        fleet.format_devices()


def test_env_hosts_read_lazily_after_scheduler_built(workers, monkeypatch):
    """Exporting REPRO_FLEET_EXECUTOR=rpc + REPRO_FLEET_HOSTS after
    the fleet exists must still dispatch remotely."""
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    fleet = device_rack(n=2, blocks=16)
    fleet.format_devices()
    assert fleet.last_op.executor == "serial"
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    monkeypatch.setenv("REPRO_FLEET_HOSTS", ",".join(workers))
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
    """``last_op`` exposes per-host bytes: snapshot-sized while
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


def test_session_registry_holds_stores_weakly():
    """The session registry is keyed by the store and holds it weakly:
    once a store is collected its entry is gone, and a new store
    starts at generation 0 under a fresh key."""
    import gc

    from repro.parallel import session as session_mod

    store = device_rack(n=1, blocks=16).members[0]
    record = session_mod.session_for(store)
    record.invalidate()
    assert session_mod.session_for(store) is record
    assert record.generation == 1
    del store
    gc.collect()
    assert all(entry is not record
               for entry in list(session_mod._SESSIONS.values()))
    other = device_rack(n=1, blocks=16).members[0]
    fresh = session_mod.session_for(other)
    assert fresh.generation == 0 and fresh.key != record.key


# -- reporting plumbing --------------------------------------------------------


def test_report_names_hosts_and_per_host_bytes(workers):
    fleet = device_rack(RpcExecutor(workers))
    fleet.audit()
    stats = fleet.last_op
    assert (stats.operation, stats.executor) == ("audit", "rpc")
    assert stats.hosts == tuple(sorted(workers))
    assert set(stats.bytes_out) == set(stats.bytes_back) <= set(workers)
    assert all(sent > 0 for sent in stats.bytes_out.values())
    assert stats.wall_seconds > 0.0
    assert stats.results == []  # the kept record pins no member state


def test_rpc_refuses_a_task_that_is_not_a_member_task():
    """Every rpc request runs a MemberTask: any other task is a
    TypeError before any host is resolved or dialled (nothing listens
    on the address), and a MemberTask naming a verb outside
    ``MemberTask.VERBS`` cannot be built at all."""
    pooled = _pooled_connections()
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))  # bound, never listening
    try:
        executor = RpcExecutor([f"127.0.0.1:{holder.getsockname()[1]}"])
        a, b = device_rack(n=2, blocks=16).members
        for task in (divmod, a.audit, (a, "audit", {})):
            with pytest.raises(TypeError, match="MemberTask"):
                executor.run([task])
        with pytest.raises(TypeError, match="task 1"):
            executor.run([MemberTask(a, "audit"), divmod])
        with pytest.raises(ValueError, match="'put'"):
            MemberTask(b, "put")
        assert _pooled_connections() == pooled
    finally:
        holder.close()


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


def test_probes_leave_the_pass_pool_alone(workers):
    """A probe dials a connection of its own and closes it: ``ping``
    neither parks a socket in the pass pool nor borrows one from it."""
    close_connection_pools()
    for addr in workers:
        assert ping(addr) > 0
    assert _pooled_connections() == 0
    device_rack(RpcExecutor(workers), n=2, blocks=16).format_devices()
    pooled = {addr: _pooled_connections(addr) for addr in workers}
    assert sum(pooled.values()) > 0
    for addr in workers:
        assert ping(addr) > 0
    assert {addr: _pooled_connections(addr) for addr in workers} == pooled


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
    dispatch — and pin — every member on the same worker."""
    from repro.parallel.session import session_for

    a = RpcExecutor(list(workers))
    b = RpcExecutor(list(reversed(workers)))
    assert a.hosts == b.hosts
    rack_a = device_rack(a, n=5, blocks=16)
    rack_b = device_rack(b, n=5, blocks=16)
    assert rack_a.format_devices() == rack_b.format_devices()

    def pins(rack):
        return [set(session_for(member).pins) for member in rack.members]

    assert pins(rack_a) == pins(rack_b)
    assert all(len(hosts) == 1 and hosts <= set(workers)
               for hosts in pins(rack_a))


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
    env.pop("REPRO_FLEET_HOSTS", None)
    env.pop("REPRO_FLEET_EXECUTOR", None)
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

    def holder(path):
        with fleet._held_holder(path) as (index, _store):
            return index

    homes = {p: holder(p) for p in paths}
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
        assert holder(path) == homes[path]
        assert fleet.verify(path).intact


# -- fault policy & health -----------------------------------------------------


def test_fleet_fault_policy_resolution_layers(monkeypatch):
    """fleet_timeout / fleet_retries / fleet_on_failure through the
    five-layer chain, with describe_policy naming the deciding layer."""
    for var in ("REPRO_FLEET_TIMEOUT", "REPRO_FLEET_RETRIES",
                "REPRO_FLEET_ON_FAILURE"):
        monkeypatch.delenv(var, raising=False)
    assert resolve("fleet_timeout") == (None, "default")
    assert resolve("fleet_retries") == (0, "default")
    assert resolve("fleet_on_failure") == ("raise", "default")

    monkeypatch.setenv("REPRO_FLEET_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_FLEET_RETRIES", "3")
    monkeypatch.setenv("REPRO_FLEET_ON_FAILURE", "degrade")
    assert resolve("fleet_timeout") == (2.5, "env")
    assert resolve("fleet_retries") == (3, "env")
    assert resolve("fleet_on_failure") == ("degrade", "env")
    # 0 is an explicit env disable for the deadline
    monkeypatch.setenv("REPRO_FLEET_TIMEOUT", "0")
    assert resolve("fleet_timeout") == (None, "env")
    # garbage env values are ignored, like the other fleet switches
    monkeypatch.setenv("REPRO_FLEET_RETRIES", "-2")
    assert resolve("fleet_retries") == (0, "default")
    monkeypatch.setenv("REPRO_FLEET_ON_FAILURE", "explode")
    assert resolve("fleet_on_failure") == ("raise", "default")

    api.set_policy(ExecutionPolicy(fleet_timeout=7.0, fleet_retries=1,
                                   fleet_on_failure="degrade"))
    assert resolve("fleet_timeout") == (7.0, "policy")
    assert resolve("fleet_retries") == (1, "policy")
    assert resolve("fleet_on_failure") == ("degrade", "policy")

    with repro.engine(fleet_timeout=0.5, fleet_retries=2,
                      fleet_on_failure="raise"):
        assert resolve("fleet_timeout") == (0.5, "context")
        assert resolve("fleet_retries") == (2, "context")
        assert resolve("fleet_on_failure") == ("raise", "context")
        d = api.describe_policy()
        assert d["fleet_timeout"] == 0.5
        assert d["fleet_timeout_source"] == "context"
        assert d["fleet_retries"] == 2
        assert d["fleet_retries_source"] == "context"
        assert d["fleet_on_failure"] == "raise"
        assert d["fleet_on_failure_source"] == "context"

    assert resolve("fleet_timeout", 1.5) == (1.5, "explicit")
    assert resolve("fleet_retries", 4) == (4, "explicit")
    assert resolve("fleet_on_failure", "degrade") == \
        ("degrade", "explicit")

    with pytest.raises(ValueError):
        resolve("fleet_timeout", -1.0)
    with pytest.raises(ValueError):
        resolve("fleet_retries", -1)
    with pytest.raises(ValueError):
        resolve("fleet_on_failure", "explode")
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
        member = device_rack(n=1, blocks=16).members[0]
        with pytest.raises(RpcTimeoutError):
            executor.run([MemberTask(member, "audit")])
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
    hosts = parse_hosts([worker_a.address, worker_b.address])
    ring = HashRing(hosts)
    victim_addr = ring.lookup("member-0")
    victim = worker_a if worker_a.address == victim_addr else worker_b
    reset_host_health()
    try:
        executor = RpcExecutor(list(hosts), retries=2)
        serial, fleet = device_rack("serial"), device_rack(executor)
        twin_objects, paths = object_rack("serial")
        objects, _ = object_rack(executor)
        assert fleet.format_devices() == serial.format_devices()
        victim.kill()
        for rack in (serial, fleet):
            seal_lines(rack)
        assert fleet.audit() == serial.audit()
        # the failed host was charged one re-dispatch per member the
        # ring had placed on it
        lost = sum(ring.lookup(f"member-{i}") == victim_addr
                   for i in range(fleet.member_count))
        assert lost >= 1
        assert fleet.last_op.retries == {victim_addr: lost}
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
    monkeypatch.setenv("REPRO_FLEET_SECRET", "hunter2")
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
        monkeypatch.setenv("REPRO_FLEET_SECRET", "ambient-key")
        assert ping(worker.address) > 0  # ambient → resolves via env
        monkeypatch.setenv("REPRO_FLEET_SECRET", "rotated-away")
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
