"""The gateway HTTP server: ``FleetStore`` behind a network edge.

Stdlib only — :class:`http.server.ThreadingHTTPServer` fronting a
:class:`GatewayApp` that owns the shared
:class:`~repro.api.fleet.FleetStore` and the
:class:`~repro.gateway.auth.TokenTable`.  Request handling threads
parse HTTP concurrently and dispatch straight into the fleet, whose
shard-grained footprint locks
(:class:`~repro.parallel.MemberLockSet`) let requests touching
disjoint members overlap on real cores — the self-securing log
discipline demands a total instruction order *per member*, not per
fleet.  Admin passes (audit/history) take the fleet's
whole-fleet exclusive mode.

Endpoints (all under ``/v1``; bodies are JSON, bulk bytes base64):

====== ================================ ===== =======================
method path                             perm  returns
====== ================================ ===== =======================
GET    /healthz                         —     liveness/draining
POST   /t/<tenant>/put                  w     ObjectInfo
GET    /t/<tenant>/get?path=            r     object bytes
GET    /t/<tenant>/info?path=           r     ObjectInfo
POST   /t/<tenant>/seal                 w     SealReceipt
POST   /t/<tenant>/seal_many            w     receipts (207 degraded)
GET    /t/<tenant>/verify?path=         r     VerifyReport
POST   /t/<tenant>/export_evidence      w     evidence bags (207 deg.)
GET    /t/<tenant>/search?q=            r     SearchResult (confined)
GET    /admin/audit?deep=               admin AuditReport (207 deg.)
GET    /admin/history                   admin per-member op log
GET    /admin/describe                  admin deployment diagnostics
GET    /admin/alerts                    admin standing queries+alerts
POST   /admin/alerts                    admin register/unregister
====== ================================ ===== =======================

Failure semantics:

* missing/unknown/expired token → **401** (one indistinguishable
  body);
* tenant the token holds no grant on, or a missing object → **404**
  (byte-identical bodies: existence is not probeable);
* insufficient permission on a granted tenant, or a non-admin token
  on an admin endpoint → **403**;
* malformed path/body/query → **400**; overwrite/seal conflicts →
  **409**; device out of space → **507**;
* a request the HTTP parser itself refuses (malformed request line,
  URI or header line over 64 KiB, more than 100 headers, a method
  other than GET/POST) → **400/414/431/501** with the same typed JSON
  body, and the connection closes;
* a *degraded* fleet pass (``fleet_on_failure="degrade"`` with a
  member down) → **207 Multi-Status**: the body carries the surviving
  members' typed results plus the
  :class:`~repro.parallel.MemberFailure` records;
* :class:`~repro.parallel.remote.RpcConnectionError` (fleet workers
  unreachable, pass aborted, nothing folded) → **503** with
  ``Retry-After`` — the one *retryable* error class;
* draining (graceful shutdown in progress) → **503** with
  ``Retry-After``.

Graceful shutdown: :meth:`GatewayServer.close` flips the app into
draining (new requests get 503 immediately), waits for in-flight
requests to finish, stops the accept loop, then closes the fleet's
executors and pooled rpc connections.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api.fleet import FleetStore
from ..errors import (
    FileExistsError_,
    FileNotFoundError_,
    HeatError,
    ImmutableFileError,
    NoSpaceError,
    ReproError,
)
from ..search import EvidenceIndex, Query, as_query
from . import auth as _auth
from . import schemas as _schemas
from .auth import AuthError, PathError, Principal, TokenTable
from .settings import GatewaySettings

#: Refuse request bodies beyond this (a desynchronised or abusive
#: client must fail fast, like MAX_FRAME_BYTES on the rpc wire).
MAX_BODY_BYTES = 64 << 20

#: Seconds :meth:`GatewayServer.close` waits for in-flight requests.
DRAIN_TIMEOUT_S = 10.0

#: The one 404 body.  Unknown tenant, unauthorized tenant, and
#: missing object must be byte-identical on the wire.
_NOT_FOUND = {"error": {"code": "not_found", "message": "not found",
                        "retryable": False}}

#: Error codes for the statuses ``http.server`` raises itself, before
#: a request reaches :class:`GatewayApp`; any other is ``bad_request``.
_PARSER_ERROR_CODES = {
    414: "uri_too_long",
    431: "headers_too_large",
    501: "unsupported_method",
}


class _HTTPFailure(Exception):
    """Internal: short-circuit a request to one error response."""

    def __init__(self, status: int, code: str, message: str, *,
                 retryable: bool = False,
                 headers: Optional[Dict[str, str]] = None,
                 body: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.body = body if body is not None else {
            "error": {"code": code, "message": message,
                      "retryable": retryable}}


def _not_found() -> _HTTPFailure:
    return _HTTPFailure(404, "not_found", "not found", body=_NOT_FOUND)


def _forbidden(message: str) -> _HTTPFailure:
    return _HTTPFailure(403, "forbidden", message)


def _bad_request(message: str) -> _HTTPFailure:
    return _HTTPFailure(400, "bad_request", message)


class GatewayApp:
    """Routing, authorization, and fleet access for one deployment.

    Transport-free by design: :meth:`handle` takes the parsed request
    pieces and returns ``(status, headers, body-dict)``, so the
    authorization matrix is testable without opening a socket.
    """

    def __init__(self, fleet: FleetStore, tokens: TokenTable, *,
                 settings: Optional[GatewaySettings] = None,
                 index: Optional[EvidenceIndex] = None) -> None:
        self.fleet = fleet
        self.tokens = tokens
        self.settings = settings
        #: The evidence index, fed by the fleet's own op results (no
        #: extra fleet traffic).  Pass one in to share it with other
        #: consumers; by default the app owns a fresh one.
        self.index = index if index is not None else EvidenceIndex()
        fleet.attach_indexer(self.index)
        self._state = threading.Condition()
        self._inflight = 0
        self._draining = False

    # -- request lifecycle (draining) ---------------------------------------

    def enter(self) -> bool:
        """Admit one request; False once draining has begun."""
        with self._state:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def leave(self) -> None:
        with self._state:
            self._inflight -= 1
            if self._inflight == 0:
                self._state.notify_all()

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish.
        Returns True when the service emptied within ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._state:
            self._draining = True
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._state.wait(remaining)
        return True

    @property
    def draining(self) -> bool:
        with self._state:
            return self._draining

    # -- dispatch -----------------------------------------------------------

    def handle(self, method: str, raw_path: str,
               headers: Dict[str, str],
               body: bytes) -> Tuple[int, Dict[str, str],
                                     Dict[str, Any]]:
        """One request → ``(status, extra headers, JSON body)``."""
        try:
            return self._route(method, raw_path, headers, body)
        except _HTTPFailure as failure:
            return failure.status, failure.headers, failure.body
        except AuthError:
            return 401, {"WWW-Authenticate": "Bearer"}, {
                "error": {"code": "unauthorized",
                          "message": "missing or invalid bearer token",
                          "retryable": False}}
        except (PathError, _schemas.SchemaError) as exc:
            return 400, {}, {"error": {"code": "bad_request",
                                       "message": str(exc),
                                       "retryable": False}}
        except FileNotFoundError_:
            return 404, {}, dict(_NOT_FOUND)
        except (FileExistsError_, ImmutableFileError, HeatError) as exc:
            return 409, {}, {"error": {"code": "conflict",
                                       "message": str(exc),
                                       "retryable": False}}
        except NoSpaceError as exc:
            return 507, {}, {"error": {"code": "no_space",
                                       "message": str(exc),
                                       "retryable": False}}
        except ReproError as exc:
            from ..parallel.remote import RpcConnectionError

            if isinstance(exc, RpcConnectionError):
                # the pass aborted with nothing folded: safe to retry
                # verbatim once the fleet is reachable again
                return 503, {"Retry-After": "1"}, {
                    "error": {"code": "fleet_unavailable",
                              "message": str(exc), "retryable": True}}
            return 500, {}, {"error": {"code": "internal",
                                       "message": str(exc),
                                       "retryable": False}}

    def _route(self, method: str, raw_path: str,
               headers: Dict[str, str],
               body: bytes) -> Tuple[int, Dict[str, str],
                                     Dict[str, Any]]:
        split = urlsplit(raw_path)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        parts = [p for p in split.path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _not_found()
        parts = parts[1:]
        if parts == ["healthz"]:
            return 200, {}, {"status": "draining" if self.draining
                             else "ok"}
        principal = self._authenticate(headers)
        if len(parts) == 3 and parts[0] == "t":
            return self._tenant_route(method, principal, parts[1],
                                      parts[2], query, body)
        if len(parts) == 2 and parts[0] == "admin":
            return self._admin_route(method, principal, parts[1],
                                     query, body)
        raise _not_found()

    def _authenticate(self, headers: Dict[str, str]) -> Principal:
        header = ""
        for key, value in headers.items():
            if key.lower() == "authorization":
                header = value
                break
        scheme, _sep, token = header.partition(" ")
        if scheme.lower() != "bearer":
            raise AuthError("missing or invalid bearer token")
        return self.tokens.resolve(token.strip())

    @staticmethod
    def _check(principal: Principal, tenant: str, *,
               write: bool) -> None:
        verdict = principal.decide(tenant, write=write)
        if verdict == "hidden":
            raise _not_found()
        if verdict == "forbidden":
            raise _forbidden(
                f"token {principal.label} lacks "
                f"{'write' if write else 'read'} on tenant {tenant!r}")

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise _bad_request(f"request body is not JSON: {exc}") \
                from exc
        if not isinstance(parsed, dict):
            raise _bad_request("request body must be a JSON object")
        return parsed

    # -- tenant endpoints ---------------------------------------------------

    def _tenant_route(self, method: str, principal: Principal,
                      tenant: str, op: str, query: Dict[str, str],
                      body: bytes) -> Tuple[int, Dict[str, str],
                                            Dict[str, Any]]:
        try:
            _auth.validate_tenant(tenant)
        except PathError:
            raise _not_found() from None  # same cloak as no-grant
        handlers: Dict[Tuple[str, str], Callable] = {
            ("POST", "put"): self._op_put,
            ("GET", "get"): self._op_get,
            ("GET", "info"): self._op_info,
            ("POST", "seal"): self._op_seal,
            ("POST", "seal_many"): self._op_seal_many,
            ("GET", "verify"): self._op_verify,
            ("POST", "export_evidence"): self._op_export,
            ("GET", "search"): self._op_search,
        }
        handler = handlers.get((method, op))
        if handler is None:
            raise _not_found()
        write = method == "POST"
        self._check(principal, tenant, write=write)
        payload = self._json_body(body) if method == "POST" else query
        return handler(tenant, payload)

    def _confine(self, tenant: str, payload: Dict[str, Any],
                 key: str = "path") -> str:
        value = payload.get(key)
        if not isinstance(value, str):
            raise _bad_request(f"missing or non-string {key!r}")
        return _auth.confine(tenant, value)

    def _op_put(self, tenant: str, payload: Dict[str, Any]):
        path = self._confine(tenant, payload)
        data = _schemas.b64decode(payload.get("data", ""), what="data")
        overwrite = bool(payload.get("overwrite", False))
        info = self.fleet.put(path, data, overwrite=overwrite,
                              make_parents=True)
        return 200, {}, _schemas.object_info_to_wire(info)

    def _op_get(self, tenant: str, payload: Dict[str, Any]):
        path = self._confine(tenant, payload)
        data = self.fleet.get(path)
        return 200, {}, {"path": payload["path"],
                         "data": _schemas.b64encode(data)}

    def _op_info(self, tenant: str, payload: Dict[str, Any]):
        path = self._confine(tenant, payload)
        info = self.fleet.info(path)
        return 200, {}, _schemas.object_info_to_wire(info)

    def _op_seal(self, tenant: str, payload: Dict[str, Any]):
        path = self._confine(tenant, payload)
        timestamp = self._timestamp(payload)
        receipt = self.fleet.seal(path, timestamp=timestamp)
        return 200, {}, _schemas.seal_receipt_to_wire(receipt)

    def _op_seal_many(self, tenant: str, payload: Dict[str, Any]):
        raw_paths = payload.get("paths")
        if not isinstance(raw_paths, list) or not raw_paths:
            raise _bad_request("'paths' must be a non-empty list")
        paths = [_auth.confine(tenant, p) if isinstance(p, str)
                 else self._confine(tenant, {"path": p})
                 for p in raw_paths]
        timestamp = self._timestamp(payload)
        # fleet.last_op is thread-local: reading it after the call is
        # race-free even with other handlers mid-pass.
        receipts = self.fleet.seal_many(paths, timestamp=timestamp)
        degraded = self.fleet.last_op.degraded
        slots = [_schemas.result_slot_to_wire(r) for r in receipts]
        failures = [s for s in slots if s["kind"] == "member_failure"]
        status = 207 if degraded else 200
        return status, {}, {"receipts": slots, "degraded": degraded,
                            "failures": failures}

    def _op_verify(self, tenant: str, payload: Dict[str, Any]):
        path = self._confine(tenant, payload)
        report = self.fleet.verify(path)
        return 200, {}, _schemas.verify_report_to_wire(report)

    def _op_export(self, tenant: str, payload: Dict[str, Any]):
        case = payload.get("case")
        if not isinstance(case, str):
            raise _bad_request("missing or non-string 'case'")
        raw = payload.get("exhibits")
        if not isinstance(raw, dict) or not raw:
            raise _bad_request("'exhibits' must be a non-empty object")
        exhibits = {}
        for name, data in raw.items():
            if not isinstance(name, str) or "/" in name or not name:
                raise _bad_request(f"bad exhibit name {name!r}")
            exhibits[name] = _schemas.b64decode(
                data, what=f"exhibit {name!r}")
        fleet_case = _auth.evidence_case(tenant, case)
        timestamp = self._timestamp(payload)
        export = self.fleet.export_evidence(
            fleet_case, exhibits, timestamp=timestamp)
        degraded = self.fleet.last_op.degraded
        failures = [_schemas.member_failure_to_wire(f)
                    for f in self.fleet.last_op.failures]
        status = 207 if degraded else 200
        return status, {}, {
            "case": case, "fleet_case": export.case,
            "intact": export.intact, "degraded": degraded,
            "failures": failures,
            "exports": [_schemas.evidence_export_to_wire(e)
                        for e in export.exports]}

    def _op_search(self, tenant: str, payload: Dict[str, Any]):
        """Tenant-confined evidence search.

        Whatever the query says, a ``tenant:<this tenant>`` filter is
        forced on (user-supplied ``tenant:`` filters are stripped
        first), so cross-tenant documents are invisible — not merely
        unreturned.
        """
        parsed = as_query(payload.get("q", ""))
        parsed = Query(
            terms=parsed.terms,
            filters=tuple((name, value)
                          for name, value in parsed.filters
                          if name != "tenant") + (("tenant", tenant),))
        facets = tuple(f for f in payload.get("facets", "").split(",")
                       if f)
        highlight = payload.get("highlight", "") \
            not in ("", "0", "false", "no")
        result = self.index.search(
            parsed, facets=facets, highlight=highlight,
            limit=self._int_param(payload, "limit", minimum=1),
            fragment_size=self._int_param(payload, "fragment_size",
                                          minimum=1),
            fragment_count=self._int_param(payload, "fragment_count",
                                           minimum=0))
        return 200, {}, _schemas.search_result_to_wire(result)

    @staticmethod
    def _int_param(payload: Dict[str, Any], key: str, *,
                   minimum: int) -> Optional[int]:
        value = payload.get(key)
        if value is None or value == "":
            return None
        try:
            parsed = int(value)
        except (TypeError, ValueError):
            raise _bad_request(f"{key!r} must be an integer") from None
        if parsed < minimum:
            raise _bad_request(f"{key!r} must be >= {minimum}")
        return parsed

    @staticmethod
    def _timestamp(payload: Dict[str, Any]) -> Optional[int]:
        value = payload.get("timestamp")
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise _bad_request("'timestamp' must be an integer")
        return value

    # -- admin endpoints ----------------------------------------------------

    def _admin_route(self, method: str, principal: Principal, op: str,
                     query: Dict[str, str],
                     body: bytes) -> Tuple[int, Dict[str, str],
                                           Dict[str, Any]]:
        handlers: Dict[Tuple[str, str], Callable] = {
            ("GET", "audit"): self._op_audit,
            ("GET", "history"): self._op_history,
            ("GET", "describe"): self._op_describe,
            ("GET", "alerts"): self._op_alerts,
            ("POST", "alerts"): self._op_alerts_post,
        }
        handler = handlers.get((method, op))
        if handler is None:
            raise _not_found()
        if not principal.admin:
            # the endpoint's existence is documented — a tenant token
            # learns nothing from a 403 here, and "insufficient
            # privilege" beats a lying 404 for operability
            raise _forbidden(
                f"token {principal.label} is not admin")
        return handler(query, body)

    def _op_audit(self, query: Dict[str, str], _body: bytes = b""):
        deep = query.get("deep", "") not in ("", "0", "false", "no")
        # fleet.audit takes the fleet's exclusive mode internally: it
        # waits for in-flight shard requests, then runs alone.
        report = self.fleet.audit(deep=deep)
        degraded = self.fleet.last_op.degraded
        failures = [_schemas.member_failure_to_wire(f)
                    for f in self.fleet.last_op.failures]
        wire = _schemas.audit_report_to_wire(report)
        wire["degraded"] = degraded
        wire["failures"] = failures
        return (207 if degraded else 200), {}, wire

    def _op_history(self, _query: Dict[str, str], _body: bytes = b""):
        # no single fleet op wraps this member walk, so take the
        # fleet's exclusive mode here to freeze every per-member log
        with self.fleet.exclusive():
            members = [_schemas.history_to_wire(member.history())
                       for member in self.fleet.members]
        return 200, {}, {"members": members}

    def _op_describe(self, _query: Dict[str, str], _body: bytes = b""):
        with self.fleet.exclusive():
            fleet_desc = {
                key: (list(value) if isinstance(value, tuple) else value)
                for key, value in self.fleet.describe().items()}
        body: Dict[str, Any] = {"fleet": fleet_desc}
        if self.settings is not None:
            body["settings"] = self.settings.describe()
        return 200, {}, body

    def _op_alerts(self, _query: Dict[str, str], _body: bytes = b""):
        """Standing queries plus every fired tamper alert."""
        return 200, {}, {
            "standing": [_schemas.standing_query_to_wire(sq)
                         for sq in self.index.standing_queries()],
            "alerts": [_schemas.tamper_alert_to_wire(a)
                       for a in self.index.alerts]}

    def _op_alerts_post(self, _query: Dict[str, str], body: bytes):
        """Register (``{"name", "query", "tenant"?}``) or unregister
        (``{"unregister": name}``) one standing query."""
        payload = self._json_body(body)
        if "unregister" in payload:
            name = payload["unregister"]
            if not isinstance(name, str) or not name:
                raise _bad_request("'unregister' must be a query name")
            removed = self.index.unregister_alert(name)
            return 200, {}, {"unregistered": removed, "name": name}
        name = payload.get("name")
        query_text = payload.get("query")
        if not isinstance(name, str) or not name:
            raise _bad_request("missing or non-string 'name'")
        if not isinstance(query_text, str) or not query_text.strip():
            raise _bad_request("missing or non-string 'query'")
        tenant = payload.get("tenant")
        if tenant is not None:
            tenant = _auth.validate_tenant(tenant)
        standing = self.index.register_alert(name, query_text,
                                             tenant=tenant)
        return 200, {}, _schemas.standing_query_to_wire(standing)


# ---------------------------------------------------------------------------
# HTTP plumbing


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway/1.0"
    app: GatewayApp  # set by the server subclass

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # request logging is the deployment's proxy's job

    def _respond(self, status: int, headers: Dict[str, str],
                 body: Dict[str, Any]) -> None:
        """Send one response as exactly one ``wfile.write``.

        Headers in one send and a small body in a second is the
        write-write-read pattern that Nagle's algorithm holds until the
        client's delayed ACK fires: a ~40 ms stall per request on
        loopback.  The head is built here, not through
        ``send_header``, whose buffer does not exist while the stdlib
        parser is still in HTTP/0.9 mode (a one-word request line), so
        its rejections get a full status line too.
        """
        payload = json.dumps(body).encode("utf-8")
        fields = {"Server": self.version_string(),
                  "Date": self.date_time_string(),
                  "Content-Type": "application/json",
                  "Content-Length": str(len(payload)), **headers}
        if fields.get("Connection", "").lower() == "close":
            self.close_connection = True
        reason = self.responses.get(status, ("",))[0]
        head = "".join([f"{self.protocol_version} {status} {reason}\r\n",
                        *(f"{key}: {value}\r\n"
                          for key, value in fields.items()),
                        "\r\n"])
        self.wfile.write(head.encode("latin-1", "strict") + payload)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib parser's own rejections (malformed request line,
        oversized URI or headers, unsupported method) answer in the
        same typed JSON as every other error, not its HTML page, and
        in ``protocol_version`` even when the request line was too
        malformed to name one.  The request was never framed, so the
        connection ends with it."""
        self.close_connection = True
        self._respond(code, {"Connection": "close"}, {
            "error": {"code": _PARSER_ERROR_CODES.get(code, "bad_request"),
                      "message": message or HTTPStatus(code).phrase,
                      "retryable": False}})

    def _serve(self, method: str) -> None:
        app = self.server.app  # type: ignore[attr-defined]
        if not app.enter():
            self._respond(503, {"Retry-After": "1"}, {
                "error": {"code": "draining",
                          "message": "gateway is shutting down",
                          "retryable": True}})
            return
        try:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                # no body can be framed after this header block: answer
                # without reading one and drop the connection
                self.close_connection = True
                failure = _bad_request(
                    "Content-Length must be a non-negative integer")
                self._respond(failure.status, failure.headers, failure.body)
                return
            if length > MAX_BODY_BYTES:
                # the unread body would otherwise be parsed as the next
                # request on this connection (request smuggling)
                self.close_connection = True
                self._respond(413, {}, {
                    "error": {"code": "too_large",
                              "message": "request body exceeds "
                                         f"{MAX_BODY_BYTES} bytes",
                              "retryable": False}})
                return
            body = self.rfile.read(length) if length else b""
            status, headers, payload = app.handle(
                method, self.path, dict(self.headers.items()), body)
            self._respond(status, headers, payload)
        except (ConnectionError, socket.error):
            self.close_connection = True
        finally:
            app.leave()

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 app: GatewayApp) -> None:
        super().__init__(address, _GatewayHandler)
        self.app = app

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A peer that resets or drops its connection mid-request is
        not a server fault: the connection is closed without a word.
        Anything else is reported as socketserver reports it."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class GatewayServer:
    """A running gateway: HTTP accept loop + graceful lifecycle.

    Usage::

        app = GatewayApp(fleet, TokenTable.from_spec(spec))
        with GatewayServer(app, host="127.0.0.1", port=0) as server:
            ...  # server.address is the bound host:port
    """

    def __init__(self, app: GatewayApp, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self._httpd = _GatewayHTTPServer((host, port), app)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "GatewayServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"gateway-{self.address}", daemon=True)
        self._thread.start()
        return self

    def close(self, *, graceful: bool = True,
              drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Drain, stop accepting, release fleet executors
        (idempotent).  ``graceful=False`` skips the drain — the
        fault-injection path, not the deployment one."""
        if graceful:
            self.app.drain(drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout)
            self._thread = None
        from .. import parallel

        parallel.close_executors()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()


def serve(settings: Optional[GatewaySettings] = None, *,
          announce=print) -> None:
    """Run a gateway until interrupted (the ``python -m repro.gateway
    serve`` entry point).  ``announce`` receives one ``"GATEWAY
    listening on host:port"`` line once the socket accepts — launchers
    parse it to learn an ephemeral port."""
    if settings is None:
        settings = GatewaySettings.resolve()
    fleet = settings.build_fleet()
    app = GatewayApp(fleet, settings.tokens, settings=settings)
    server = GatewayServer(app, host=settings.host, port=settings.port)
    server.start()
    announce(f"GATEWAY listening on {server.address}")
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        announce("GATEWAY draining")
        server.close(graceful=True)
        announce("GATEWAY stopped")
