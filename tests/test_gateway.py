"""The HTTP gateway end to end: real sockets, typed round trips.

Five layers:

* **byte-identity** — every object/fleet operation issued through
  :class:`GatewayClient` must return results ``==`` to the same
  sequence run on a direct in-process ``FleetStore`` twin, and leave
  every member store at the identical
  :func:`~repro.parallel.session.store_fingerprint`;
* **degrade over HTTP** — a fleet pass that loses members
  (``fleet_on_failure="degrade"`` with an unreachable host) surfaces
  as **207 Multi-Status** with typed
  :class:`~repro.parallel.MemberFailure` slots, and an unreachable
  fleet (``on_failure="raise"``) as a retryable **503**;
* **settings** — ``GatewaySettings`` resolution: inline token spec
  beats token file, missing credentials refuse to start, fleet-shape
  env knobs;
* **lifecycle** — graceful drain answers 503 to new requests and the
  closed server refuses connections;
* **evidence search** — ``/v1/t/<tenant>/search`` is tenant-confined
  (smuggled tenant filters stripped), standing tamper alerts fire
  exactly once per transition through ``/v1/admin/alerts``, and
  degraded audits surface typed member-failure documents in the
  gateway's evidence index.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import struct
import threading

import pytest

import repro.api as api
from repro.api.fleet import FleetStore
from repro.api.policy import KNOBS
from repro.api.store import StoreConfig
from repro.errors import ConfigurationError
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayConnectionError,
    GatewayHTTPError,
    GatewayServer,
    GatewaySettings,
    TokenTable,
    confine,
    evidence_case,
)
from repro.gateway.server import MAX_BODY_BYTES, _GatewayHandler
from repro.parallel import MemberFailure, close_connection_pools
from repro.parallel.session import store_fingerprint

from twin_racks import dead_host_splitting, thread_worker

SPEC = "root-token=admin;acme-rw=acme:rw;globex-rw=globex:rw"
CONFIG = StoreConfig(total_blocks=256, audit_log=True)


def _fingerprints(fleet):
    return [store_fingerprint(member) for member in fleet.members]


@pytest.fixture()
def stack():
    """A serving gateway plus its identically seeded in-process twin."""
    fleet = FleetStore.create(3, CONFIG)
    twin = FleetStore.create(3, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
    with GatewayServer(app) as server:
        yield server, fleet, twin


# -- byte-identity against the in-process twin ---------------------------------


def test_object_ops_byte_identical_to_twin(stack):
    server, fleet, twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")

    info = client.put("/ledger/2026/q1", b"entry " * 20)
    receipt = client.seal("/ledger/2026/q1", timestamp=44)
    verdict = client.verify("/ledger/2026/q1")
    data = client.get("/ledger/2026/q1")

    path = confine("acme", "/ledger/2026/q1")
    assert info == twin.put(path, b"entry " * 20, make_parents=True)
    assert receipt == twin.seal(path, timestamp=44)
    assert verdict == twin.verify(path)
    assert data == twin.get(path)
    assert receipt.path == path  # receipts carry real storage paths
    assert _fingerprints(fleet) == _fingerprints(twin)


def test_info_matches_twin_and_hides_foreign_paths(stack):
    """``GatewayClient.info`` is the twin's ``ObjectInfo`` before and
    after ``seal``; a missing path and another tenant's object answer
    the same 404."""
    server, fleet, twin = stack
    acme = GatewayClient(server.address, "acme-rw", tenant="acme")
    globex = GatewayClient(server.address, "globex-rw", tenant="globex")
    path = confine("acme", "/ledger/info")

    acme.put("/ledger/info", b"row " * 30)
    twin.put(path, b"row " * 30, make_parents=True)
    before = acme.info("/ledger/info")
    assert before == twin.info(path) and not before.sealed
    acme.seal("/ledger/info", timestamp=5)
    twin.seal(path, timestamp=5)
    after = acme.info("/ledger/info")
    assert after == twin.info(path) and after.sealed
    assert after.path == path

    globex.put("/theirs", b"globex only")
    twin.put(confine("globex", "/theirs"), b"globex only",
             make_parents=True)

    def not_found(probe):
        with pytest.raises(GatewayHTTPError) as err:
            probe()
        return (err.value.status, err.value.code, err.value.retryable,
                str(err.value))

    missing = not_found(lambda: acme.info("/nothing/here"))
    assert missing[:2] == (404, "not_found")
    for foreign in (lambda: acme.info("/theirs"),
                    lambda: acme.info("/t/globex/theirs"),
                    lambda: acme.info("/theirs", tenant="globex")):
        assert not_found(foreign) == missing
    assert _fingerprints(fleet) == _fingerprints(twin)


def test_seal_many_and_audit_byte_identical_to_twin(stack):
    server, fleet, twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    admin = GatewayClient(server.address, "root-token")
    paths = [f"/batch/{i}" for i in range(6)]

    for i, path in enumerate(paths):
        client.put(path, bytes([i]) * 30)
        twin.put(confine("acme", path), bytes([i]) * 30,
                 make_parents=True)
    receipts = client.seal_many(paths, timestamp=7)
    twin_receipts = twin.seal_many([confine("acme", p) for p in paths],
                                   timestamp=7)
    assert receipts == twin_receipts
    assert not client.last_degraded

    report = admin.audit()
    assert report == twin.audit()
    assert report.clean
    assert _fingerprints(fleet) == _fingerprints(twin)


def test_export_evidence_byte_identical_to_twin(stack):
    server, fleet, twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    exhibits = {"mail.txt": b"A" * 50, "disk.img": b"B" * 80}

    export = client.export_evidence("case-9", exhibits, timestamp=3)
    reference = twin.export_evidence(evidence_case("acme", "case-9"),
                                     exhibits, timestamp=3)
    assert export == reference
    assert export.intact
    assert _fingerprints(fleet) == _fingerprints(twin)


def test_history_matches_member_logs(stack):
    server, fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    admin = GatewayClient(server.address, "root-token")
    client.put("/doc", b"x")
    client.seal("/doc")

    history = admin.history()
    assert history == [member.history() for member in fleet.members]
    flat = b"\n".join(rec for log in history for _t, rec in log)
    assert confine("acme", "/doc").encode() in flat


def test_describe_names_fleet_and_policy(stack):
    server, _fleet, _twin = stack
    admin = GatewayClient(server.address, "root-token")
    described = admin.describe()
    assert described["fleet"]["members"] == 3
    # tenant tokens may not introspect the deployment
    tenant = GatewayClient(server.address, "acme-rw", tenant="acme")
    with pytest.raises(GatewayHTTPError) as err:
        tenant.describe()
    assert err.value.status == 403


def test_describe_answers_under_an_invalid_hosts_export(monkeypatch):
    """The misconfiguration an operator opens ``describe`` to find must
    come back as 200 with the error named, not as a 500."""
    monkeypatch.setenv("REPRO_FLEET_HOSTS", "nonsense")
    app = GatewayApp(FleetStore.create(2, CONFIG),
                     TokenTable.from_spec(SPEC),
                     settings=GatewaySettings.resolve(tokens=SPEC))
    with GatewayServer(app) as server:
        policy = GatewayClient(
            server.address, "root-token").describe()["settings"]["policy"]
    assert policy["fleet_hosts"] is None
    assert policy["fleet_hosts_source"] == "env (invalid)"
    assert "nonsense" in policy["fleet_hosts_error"]
    assert policy["executor_source"] == "default"  # the rest still reports
    # every knob row reports, and only the rows do
    assert {key for key in policy if key.endswith("_source")} == \
        {f"{name}_source" for name in KNOBS}
    assert not any(key.startswith(("engine", "sha256")) for key in policy)


# -- degraded and unreachable fleets over HTTP ---------------------------------


def _export_fleet_dispatch(monkeypatch, **knobs):
    """Point fleet dispatch at ``knobs`` through the ``REPRO_FLEET_*``
    variables: unlike an ``engine()`` scope on the test thread, the
    environment reaches the server's handler threads."""
    for name, value in knobs.items():
        text = ",".join(value) if isinstance(value, tuple) else str(value)
        monkeypatch.setenv(KNOBS[name].env_var, text)


def test_degraded_pass_surfaces_as_207_with_typed_failures(monkeypatch):
    """Kill a fleet host out from under the gateway: seal_many and
    audit answer 207, surviving slots byte-identical to the serial
    twin, failed slots decoding to MemberFailure records."""
    from repro.parallel import reset_host_health
    from repro.parallel.remote import place_members

    n = 4
    stack = contextlib.ExitStack()
    address, _server = stack.enter_context(thread_worker())
    holder = None
    try:
        dead, hosts, holder = dead_host_splitting(
            address, [f"member-{i}" for i in range(n)])
        lost = {i for i, host in place_members(hosts, range(n)).items()
                if host == dead}
        reset_host_health()
        fleet = FleetStore.create(n, CONFIG)
        twin = FleetStore.create(n, CONFIG, executor="serial")
        app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
        with GatewayServer(app) as server:
            client = GatewayClient(server.address, "acme-rw",
                                   tenant="acme")
            admin = GatewayClient(server.address, "root-token")
            paths = [f"/obj/{i}" for i in range(8)]
            for path in paths:  # puts are member-local: still serial
                client.put(path, b"q" * 25)
                twin.put(confine("acme", path), b"q" * 25,
                         make_parents=True)
            # the path batch must touch both lost and surviving
            # members for the partial report to be interesting
            routed = {fleet.route(confine("acme", p)) for p in paths}
            assert routed & lost and routed - lost

            # fleet dispatch switches to the degraded rpc fleet (the
            # twin is pinned serial, so it stays in-process)
            _export_fleet_dispatch(
                monkeypatch, executor="rpc", fleet_hosts=hosts,
                fleet_retries=0, fleet_timeout=10.0,
                fleet_on_failure="degrade")

            receipts = client.seal_many(paths, timestamp=2)
            assert client.last_degraded
            failed = [r for r in receipts
                      if isinstance(r, MemberFailure)]
            sealed = {r.path: r for r in receipts
                      if not isinstance(r, MemberFailure)}
            assert failed and sealed
            assert {f.index for f in failed} <= lost
            assert all(f.error_type == "RpcConnectionError"
                       for f in failed)

            # the failed pass opened the health breaker on the dead
            # host; clear it so the audit places members there again
            # instead of failing over cleanly to the survivor
            reset_host_health()
            report, failures = admin.audit_failures()
            assert admin.last_degraded
            assert not report.clean
            assert {f.index for f in failures} == lost
            assert any("member audit failed" in e
                       for e in report.fs_errors)

            # the gateway's evidence index recorded the degraded
            # pass as typed member-failure documents, faceted per
            # lost member (tenant-less, so only visible in-process)
            lost_docs = app.index.search(
                "verdict:member-failure", facets=("member", "type"))
            assert lost_docs.total == len(lost)
            assert dict(lost_docs.facets["member"]) == \
                {f"m{i}": 1 for i in lost}
            assert dict(lost_docs.facets["type"]) == \
                {"failure": len(lost)}
            assert {h.fields["error_type"]
                    for h in lost_docs.hits} == {"RpcConnectionError"}

            # surviving members sealed byte-identical to the twin
            twin_receipts = twin.seal_many(
                [confine("acme", p) for p in paths], timestamp=2)
            by_path = {r.path: r for r in twin_receipts}
            for path, receipt in sealed.items():
                assert receipt == by_path[path]
    finally:
        if holder is not None:
            holder.close()
        stack.close()
        close_connection_pools()
        reset_host_health()


def test_unreachable_fleet_is_a_retryable_503(monkeypatch):
    from repro.parallel import reset_host_health

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    reset_host_health()
    fleet = FleetStore.create(2, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
    try:
        with GatewayServer(app) as server:
            admin = GatewayClient(server.address, "root-token")
            _export_fleet_dispatch(
                monkeypatch, executor="rpc", fleet_hosts=(dead,),
                fleet_retries=0, fleet_timeout=2.0,
                fleet_on_failure="raise")
            with pytest.raises(GatewayHTTPError) as err:
                admin.audit()
            assert err.value.status == 503
            assert err.value.retryable
    finally:
        close_connection_pools()
        reset_host_health()


# -- settings ------------------------------------------------------------------


def test_inline_token_env_beats_token_file(monkeypatch, tmp_path):
    spec_file = tmp_path / "tokens.txt"
    spec_file.write_text("file-tok=acme:r\n")
    monkeypatch.setenv(api.GATEWAY_TOKENS_ENV_VAR, "env-tok=acme:rw")
    monkeypatch.setenv("REPRO_GATEWAY_TOKEN_FILE", str(spec_file))
    settings = GatewaySettings.resolve()
    assert settings.tokens_source == "env"
    assert settings.tokens.resolve("env-tok").grants["acme"].write
    with pytest.raises(Exception):
        settings.tokens.resolve("file-tok")


def test_token_file_used_when_no_inline_spec(monkeypatch, tmp_path):
    spec_file = tmp_path / "tokens.txt"
    spec_file.write_text("# fleet ops\nfile-tok=acme:r\n")
    monkeypatch.delenv(api.GATEWAY_TOKENS_ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_GATEWAY_TOKEN_FILE", str(spec_file))
    settings = GatewaySettings.resolve()
    assert settings.tokens_source.startswith("token_file")
    assert settings.tokens.resolve("file-tok").grants["acme"].read


def test_no_credentials_refuse_to_start(monkeypatch):
    monkeypatch.delenv(api.GATEWAY_TOKENS_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_GATEWAY_TOKEN_FILE", raising=False)
    with pytest.raises(ConfigurationError, match="no gateway"):
        GatewaySettings.resolve()
    with pytest.raises(ConfigurationError, match="cannot read"):
        GatewaySettings.resolve(token_file="/definitely/not/a/file")


def test_bind_and_fleet_shape_resolution(monkeypatch):
    from repro.gateway.settings import GATEWAY_MEMBERS_ENV_VAR

    monkeypatch.setenv("REPRO_GATEWAY_BIND", "0.0.0.0:9000")
    monkeypatch.setenv(GATEWAY_MEMBERS_ENV_VAR, "2")
    settings = GatewaySettings.resolve(tokens="tok1=acme:rw")
    assert (settings.host, settings.port) == ("0.0.0.0", 9000)
    assert settings.bind_source == "env"
    assert settings.members == 2
    fleet = settings.build_fleet()
    assert len(fleet.members) == 2
    assert fleet.members[0].audit_log is not None
    monkeypatch.setenv(GATEWAY_MEMBERS_ENV_VAR, "zero")
    with pytest.raises(ConfigurationError, match="integer"):
        GatewaySettings.resolve(tokens="tok1=acme:rw")


def test_ipv6_bind_is_an_invalid_export(monkeypatch):
    """The gateway listens on an IPv4 socket: an IPv6 bind is named as
    the misconfiguration, never a resolver error at startup."""
    monkeypatch.setenv("REPRO_GATEWAY_BIND", "[::1]:80")
    assert api.describe_policy()["gateway_bind_source"] == "env (invalid)"
    with pytest.raises(ConfigurationError, match="IPv4"):
        GatewaySettings.resolve(tokens="tok1=acme:rw")


def test_check_tokens_subcommand(monkeypatch, capsys):
    from repro.gateway.__main__ import main

    monkeypatch.setenv(api.GATEWAY_TOKENS_ENV_VAR,
                       "tok1=acme:rw;tok2=admin")
    assert main(["check-tokens"]) == 0
    assert "2 principal(s)" in capsys.readouterr().out
    monkeypatch.setenv(api.GATEWAY_TOKENS_ENV_VAR, "broken")
    assert main(["check-tokens"]) == 2


# -- lifecycle -----------------------------------------------------------------


def test_draining_gateway_answers_retryable_503():
    fleet = FleetStore.create(2, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
    with GatewayServer(app) as server:
        client = GatewayClient(server.address, "acme-rw",
                               tenant="acme")
        client.put("/pre-drain", b"x")
        assert app.drain(timeout=5.0)  # empties immediately: idle
        with pytest.raises(GatewayHTTPError) as err:
            client.put("/post-drain", b"x")
        assert err.value.status == 503
        assert err.value.code == "draining"
        assert err.value.retryable


def test_closed_server_refuses_connections():
    fleet = FleetStore.create(2, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
    server = GatewayServer(app).start()
    address = server.address
    client = GatewayClient(address, "acme-rw", tenant="acme")
    client.put("/alive", b"x")
    server.close()
    client.close()
    with pytest.raises(GatewayConnectionError):
        GatewayClient(address, "acme-rw", tenant="acme",
                      timeout=2.0).healthz()
    server.close()  # idempotent


def test_error_body_shape_is_stable(stack):
    server, _fleet, _twin = stack
    import http.client

    conn = http.client.HTTPConnection(*server.address.split(":"))
    conn.request("GET", "/v1/t/acme/get?path=/x",
                 headers={"Authorization": "Bearer acme-rw"})
    response = conn.getresponse()
    body = json.loads(response.read())
    assert response.status == 404
    assert set(body) == {"error"}
    assert set(body["error"]) == {"code", "message", "retryable"}
    conn.close()


@pytest.mark.parametrize("declared", ["-1", "abc"])
def test_malformed_content_length_is_a_typed_400(stack, declared):
    """Hostile bytes before auth: no token is sent, no body is read,
    the handler thread and its in-flight slot are released."""
    server, _fleet, _twin = stack
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(b"POST /v1/t/acme/put HTTP/1.1\r\nHost: gateway\r\n"
                     b"Content-Length: " + declared.encode() + b"\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):  # until the server hangs up
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == {
        "code": "bad_request", "retryable": False,
        "message": "Content-Length must be a non-negative integer"}
    assert server.app._inflight == 0
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    assert client.put("/after", b"x").size == 1
    client.close()


def test_oversized_body_is_a_413_that_closes_the_connection(stack):
    """The declared body is never read, so the connection must end with
    the 413: otherwise the unread bytes are parsed as the next request
    (here a smuggled healthz that would answer 200)."""
    from repro.gateway.server import MAX_BODY_BYTES

    server, _fleet, _twin = stack
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(b"POST /v1/t/acme/put HTTP/1.1\r\nHost: gateway\r\n"
                     b"Authorization: Bearer acme-rw\r\n"
                     b"Content-Length: "
                     + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
                     b"GET /v1/healthz HTTP/1.1\r\nHost: gateway\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):  # until the server hangs up
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    head, _, body = reply.partition(b"\r\n\r\n")
    assert json.loads(body)["error"]["code"] == "too_large"
    assert server.app._inflight == 0


# Each request ends exactly where http.server stops reading it, so the
# server's hang-up never meets unread bytes (which would reset the
# connection before the reply is read).
@pytest.mark.parametrize("request_bytes, status, code", [
    (b"GET /v1/t/acme/get x HTTP/1.1\r\n", 400, "bad_request"),
    (b"GET /" + b"a" * 65532, 414, "uri_too_long"),
    (b"GET /v1/healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101,
     431, "headers_too_large"),
    (b"GARBAGE\r\n\r\n", 400, "bad_request"),
], ids=["400-request-line", "414-uri", "431-headers", "400-one-word-line"])
def test_parser_rejections_are_typed_json_and_close(stack, request_bytes,
                                                    status, code):
    server, _fleet, _twin = stack
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(request_bytes)
        reply = b""
        while chunk := sock.recv(65536):  # until the server hangs up
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"Content-Type: application/json" in head
    error = json.loads(body)["error"]
    assert set(error) == {"code", "message", "retryable"}
    assert error["code"] == code and error["retryable"] is False
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    assert client.healthz()
    client.close()


def test_a_peer_reset_leaves_stderr_quiet(stack, capfd, monkeypatch):
    """A client that sends half a request line and resets the
    connection reaches the server's error hook, which drops it without
    a traceback on stderr."""
    server, _fleet, _twin = stack
    httpd = server._httpd
    handled = threading.Event()
    real = httpd.handle_error

    def handle_error(request, client_address):
        try:
            real(request, client_address)
        finally:
            handled.set()
    monkeypatch.setattr(httpd, "handle_error", handle_error)
    host, port = server.address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    sock.sendall(b"GET /v1/hea")
    # linger 0: close sends a reset, not a FIN
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()
    assert handled.wait(5.0)
    assert capfd.readouterr().err == ""


class _RecordingWriter:
    """A handler's ``wfile`` that keeps every ``write`` separately."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class _RecordingHandler(_GatewayHandler):
    """The gateway's handler on in-memory streams: the request bytes
    in, every write out, no socket and no clock."""

    def setup(self) -> None:
        self.rfile = io.BytesIO(self.request)
        self.wfile = _RecordingWriter()

    def finish(self) -> None:
        pass


class _DrainingApp:
    def enter(self) -> bool:
        return False


def _writes_for(app, request_bytes: bytes):
    server = type("Server", (), {"app": app})()
    return _RecordingHandler(request_bytes, ("127.0.0.1", 0),
                             server).wfile.writes


@pytest.mark.parametrize("request_bytes, status, code", [
    (b"GET /v1/healthz HTTP/1.1\r\n\r\n", 200, None),
    (b"POST /v1/t/acme/put HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
     400, "bad_request"),
    (b"POST /v1/t/acme/put HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BODY_BYTES + 1), 413, "too_large"),
    (b"GET /v1/healthz HTTP/1.1\r\n\r\n", 503, "draining"),
    (b"GARBAGE\r\n\r\n", 400, "bad_request"),
], ids=["200", "400-content-length", "413", "503-draining", "400-parser"])
def test_each_response_is_exactly_one_write(stack, request_bytes,
                                            status, code):
    """The delayed-ACK stall needs a response split over two sends;
    this pins one write per response without a wall clock."""
    server, _fleet, _twin = stack
    app = _DrainingApp() if code == "draining" else server.app
    writes = _writes_for(app, request_bytes)
    assert len(writes) == 1
    head, _, body = writes[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nContent-Type: application/json" in head
    assert b"\r\nContent-Length: %d" % len(body) in head
    payload = json.loads(body)
    if code is not None:
        assert payload["error"]["code"] == code


def test_unsupported_method_is_a_typed_501(stack):
    server, _fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    with pytest.raises(GatewayHTTPError) as excinfo:
        client._request("DELETE", "/v1/t/acme/get?path=/x")
    assert excinfo.value.status == 501
    assert excinfo.value.code == "unsupported_method"
    assert excinfo.value.retryable is False
    assert client.put("/after", b"x").size == 1  # reconnects and serves
    client.close()


# -- client retries (opt-in) ----------------------------------------------------


class _FlakyHandler:
    """A stub gateway that fails the first ``fail_n`` requests."""


@pytest.fixture()
def flaky_server():
    import http.server
    import threading

    state = {"requests": 0, "fail_n": 0, "status": 503,
             "retryable": True, "retry_after": "0"}

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def _serve(self):
            state["requests"] += 1
            length = int(self.headers.get("Content-Length") or 0)
            if length:
                self.rfile.read(length)
            if state["requests"] <= state["fail_n"]:
                body = json.dumps({"error": {
                    "code": "fleet_unavailable", "message": "down",
                    "retryable": state["retryable"]}}).encode()
                self.send_response(state["status"])
                if state["retry_after"] is not None:
                    self.send_header("Retry-After", state["retry_after"])
            else:
                body = json.dumps({"status": "ok"}).encode()
                self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = _serve
        do_POST = _serve

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"{host}:{port}", state
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_client_retries_retryable_503(flaky_server):
    address, state = flaky_server
    state["fail_n"] = 2
    client = GatewayClient(address, "t", retries=2, backoff=0.001)
    with client:
        assert client.healthz() == {"status": "ok"}
    assert state["requests"] == 3


def test_client_without_retries_fails_fast(flaky_server):
    address, state = flaky_server
    state["fail_n"] = 1
    client = GatewayClient(address, "t")
    with client:
        with pytest.raises(GatewayHTTPError) as err:
            client.healthz()
    assert err.value.retryable
    assert err.value.retry_after == 0.0  # parsed from the header
    assert state["requests"] == 1


def test_client_never_retries_non_retryable(flaky_server):
    address, state = flaky_server
    state.update(fail_n=5, status=409, retryable=False,
                 retry_after=None)
    client = GatewayClient(address, "t", retries=3, backoff=0.001)
    with client:
        with pytest.raises(GatewayHTTPError) as err:
            client.healthz()
    assert err.value.status == 409
    assert err.value.retry_after is None
    assert state["requests"] == 1


def test_client_put_not_retried_unless_asked(flaky_server):
    address, state = flaky_server
    state["fail_n"] = 1
    client = GatewayClient(address, "t", tenant="acme",
                           retries=3, backoff=0.001)
    with client:
        with pytest.raises(GatewayHTTPError):
            client.put("/x", b"d")
    assert state["requests"] == 1

    state.update(requests=0, fail_n=1)
    client = GatewayClient(address, "t", tenant="acme", retries=3,
                           retry_put=True, backoff=0.001)
    from repro.gateway.schemas import SchemaError

    with client:
        # the stub's 200 body is not an ObjectInfo: reaching the
        # schema decoder proves the 503 was retried through to a 200
        with pytest.raises(SchemaError):
            client.put("/x", b"d")
    assert state["requests"] == 2


def test_client_retries_exhausted_raises_last_error(flaky_server):
    address, state = flaky_server
    state["fail_n"] = 10
    client = GatewayClient(address, "t", retries=2, backoff=0.001)
    with client:
        with pytest.raises(GatewayHTTPError) as err:
            client.healthz()
    assert err.value.status == 503
    assert state["requests"] == 3


def test_client_rejects_negative_retries():
    from repro.gateway import GatewayError

    with pytest.raises(GatewayError):
        GatewayClient("127.0.0.1:1", "t", retries=-1)


# -- evidence search over HTTP -------------------------------------------------


def test_search_round_trip_matches_app_index(stack):
    from repro.search import Query

    server, _fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    admin = GatewayClient(server.address, "root-token")

    client.put("/inv/alpha", b"alpha entry")
    client.put("/inv/beta", b"beta entry")
    client.seal("/inv/alpha", timestamp=9)
    report = admin.audit()
    assert report.clean
    # typed per-member verdict records survive the HTTP round trip
    assert report.member_records
    assert all(not r.report.label.startswith("m")
               for r in report.member_records)

    result = client.search("", facets=("sealed", "verdict"))
    assert result.total == 2
    assert dict(result.facets["sealed"]) == {"false": 1, "true": 1}
    assert ("intact", 1) in result.facets["verdict"]

    # the wire result is == the app index queried with the same
    # forced-tenant query the handler builds
    expected = server.app.index.search(
        Query(terms=(), filters=(("tenant", "acme"),)),
        facets=("sealed", "verdict"))
    assert result == expected


def test_search_highlights_evidence_text(stack):
    server, _fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    client.export_evidence(
        "case-11", {"note.txt": b"a forged ledger line"}, timestamp=5)
    result = client.search("forged", highlight=True,
                           fragment_size=30, fragment_count=1)
    assert result.total == 1
    hit = result.hits[0]
    assert hit.doc_id.startswith("ev:acme--case-11/")
    assert any("<em>forged</em>" in frag for frag in hit.highlights)


def test_search_is_tenant_confined(stack):
    server, _fleet, _twin = stack
    acme = GatewayClient(server.address, "acme-rw", tenant="acme")
    globex = GatewayClient(server.address, "globex-rw",
                           tenant="globex")
    acme.put("/doc", b"acme secret")
    globex.put("/doc", b"globex secret")

    mine = acme.search("")
    assert {h.fields["tenant"] for h in mine.hits} == {"acme"}
    # a smuggled tenant filter is stripped and replaced: globex
    # documents never appear in acme results
    smuggled = acme.search("tenant:globex")
    assert {h.fields["tenant"] for h in smuggled.hits} == {"acme"}
    theirs = globex.search("")
    assert {h.fields["tenant"] for h in theirs.hits} == {"globex"}


def test_standing_alert_lifecycle_over_http(stack):
    from repro.security.attacks import mwb_data

    server, fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    admin = GatewayClient(server.address, "root-token")

    standing = admin.register_alert("tamper", "tampered:true")
    assert (standing.name, standing.query) == ("tamper",
                                               "tampered:true")
    client.put("/vault/x", b"sealed payload")
    client.seal("/vault/x", timestamp=3)
    assert admin.audit().clean
    _standing, alerts = admin.alerts()
    assert alerts == []

    path = confine("acme", "/vault/x")
    member = fleet.members[fleet.route(path)]
    mwb_data(member.device, member.receipts[path].line_start)
    assert not admin.audit().clean

    _standing, alerts = admin.alerts()
    assert [a.doc_id for a in alerts] == [f"obj:{path}"]
    assert alerts[0].name == "tamper"
    admin.audit()  # unchanged verdict: no re-fire over HTTP either
    assert len(admin.alerts()[1]) == 1

    assert admin.unregister_alert("tamper") is True
    standing, alerts = admin.alerts()
    assert standing == [] and len(alerts) == 1  # alerts are retained


def test_search_rejects_bad_parameters(stack):
    server, _fleet, _twin = stack
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    with pytest.raises(GatewayHTTPError) as err:
        client.search(limit=0)
    assert err.value.status == 400
    with pytest.raises(GatewayHTTPError) as err:
        client.search(fragment_size=0)
    assert err.value.status == 400
