"""Typed stdlib client for the gateway: HTTP in, dataclasses out.

:class:`GatewayClient` speaks the ``/v1`` JSON wire and decodes every
response through :mod:`repro.gateway.schemas`, so a call returns the
*same* typed objects as the in-process :class:`~repro.api.fleet`
call it proxies — ``client.seal(...) == fleet.seal(...)`` holds field
for field, which is exactly what the byte-identity tests assert.

Failure model mirrors the server's status mapping:

* 2xx (including **207 Multi-Status**) → a typed result; a degraded
  pass is data, not an exception — check :attr:`last_degraded` /
  the :class:`~repro.parallel.MemberFailure` slots in the result;
* any other status → :class:`GatewayHTTPError` carrying the server's
  ``code`` / ``message`` / ``retryable`` triple;
* socket-level trouble → :class:`GatewayConnectionError` (always
  retryable; one transparent reconnect covers keep-alive races).

Transient failures are opt-in retryable: construct with
``retries=N`` and the client re-issues a request that failed with a
*retryable* error (503 ``fleet_unavailable`` / ``draining``, or a
connection drop) up to N extra times, honouring the server's
``Retry-After`` header when present and backing off exponentially
(``backoff * 2**attempt``, capped at ``max_backoff``) otherwise.
Non-retryable statuses (401/403/404/409/...) are never retried, and
``put`` — the one non-idempotent verb — is never retried unless
``retry_put=True`` (safe when every put carries ``overwrite`` or the
409 on replay is acceptable).

One client wraps one persistent HTTP/1.1 connection and is **not**
thread-safe — give each worker thread its own (they are cheap), the
way ``tests/test_fleet_concurrency.py``'s gateway hammer does.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import quote, urlencode

from ..api.fleet import FleetEvidenceExport
from ..api.store import (
    AuditReport,
    ObjectInfo,
    SealReceipt,
    VerifyReport,
)
from ..errors import ReproError
from ..parallel import MemberFailure
from ..search import SearchResult, StandingQuery, TamperAlert
from . import schemas as _schemas


class GatewayError(ReproError):
    """Base for gateway client failures."""


class GatewayConnectionError(GatewayError):
    """The gateway could not be reached (or vanished mid-request)."""


class GatewayHTTPError(GatewayError):
    """The gateway answered with an error status.

    Attributes:
        status: HTTP status code.
        code: machine-readable error code from the body.
        retryable: server's verdict on whether a verbatim retry can
            succeed (True for 503 fleet_unavailable / draining).
        retry_after: seconds the server asked us to wait before the
            retry (the ``Retry-After`` header), or None.
    """

    def __init__(self, status: int, code: str, message: str, *,
                 retryable: bool = False,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"gateway answered {status} {code}: {message}")
        self.status = status
        self.code = code
        self.retryable = retryable
        self.retry_after = retry_after


class GatewayClient:
    """A tenant's (or admin's) handle on one gateway deployment.

    Args:
        address: ``host:port`` of the gateway.
        token: bearer token presented on every request.
        tenant: default tenant for the object-grain calls (admins may
            pass ``tenant=`` per call instead).
        timeout: socket timeout per request, seconds.
        retries: extra attempts after a *retryable* failure (0 — the
            default — keeps the historic fail-fast behaviour).
        retry_put: also retry ``put``, the one non-idempotent verb.
        backoff: base sleep before retry k is ``backoff * 2**k``
            seconds, used when the server sent no ``Retry-After``.
        max_backoff: cap on any single retry sleep, seconds.
    """

    def __init__(self, address: str, token: str, *,
                 tenant: Optional[str] = None,
                 timeout: float = 30.0,
                 retries: int = 0,
                 retry_put: bool = False,
                 backoff: float = 0.1,
                 max_backoff: float = 2.0) -> None:
        host, _sep, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise GatewayError(f"bad gateway address {address!r}: "
                               "expected host:port")
        if retries < 0:
            raise GatewayError("retries must be >= 0")
        self._host = host
        self._port = int(port)
        self._token = token
        self._tenant = tenant
        self._timeout = timeout
        self._retries = retries
        self._retry_put = retry_put
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Whether the most recent fleet-wide call came back 207
        #: (degraded pass: some members folded nothing).
        self.last_degraded = False

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None, *,
                 idempotent: bool = True
                 ) -> Tuple[int, Dict[str, Any]]:
        """One logical request: ``_request_once`` plus the opt-in
        retry loop (see class docstring)."""
        attempts = 1 + (self._retries
                        if idempotent or self._retry_put else 0)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload)
            except GatewayConnectionError:
                if attempt + 1 >= attempts:
                    raise
                delay = None
            except GatewayHTTPError as exc:
                if not exc.retryable or attempt + 1 >= attempts:
                    raise
                delay = exc.retry_after
            if delay is None:
                delay = self._backoff * (2 ** attempt)
            time.sleep(min(self._max_backoff, delay))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None
                      ) -> Tuple[int, Dict[str, Any]]:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        headers = {"Authorization": f"Bearer {self._token}"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):  # one reconnect for keep-alive races
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise GatewayConnectionError(
                        f"gateway {self._host}:{self._port} "
                        f"unreachable: {exc}") from exc
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:
            raise GatewayError(
                f"gateway returned non-JSON body (status "
                f"{response.status})") from exc
        status = response.status
        self.last_degraded = status == 207
        if status >= 400:
            error = parsed.get("error", {}) \
                if isinstance(parsed, dict) else {}
            retry_after: Optional[float] = None
            raw_after = response.getheader("Retry-After")
            if raw_after is not None:
                try:
                    retry_after = float(raw_after)
                except ValueError:
                    retry_after = None  # HTTP-date form: ignore
            raise GatewayHTTPError(
                status, error.get("code", "unknown"),
                error.get("message", raw.decode("utf-8",
                                                "replace")[:200]),
                retryable=bool(error.get("retryable", False)),
                retry_after=retry_after)
        return status, parsed

    def _tenant_path(self, op: str, tenant: Optional[str]) -> str:
        name = tenant if tenant is not None else self._tenant
        if name is None:
            raise GatewayError(
                "no tenant: construct the client with tenant=... or "
                "pass tenant= per call")
        return f"/v1/t/{quote(name, safe='')}/{op}"

    # -- object grain -------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")[1]

    def put(self, path: str, data: bytes = b"", *,
            overwrite: bool = False,
            tenant: Optional[str] = None) -> ObjectInfo:
        _status, wire = self._request(
            "POST", self._tenant_path("put", tenant),
            {"path": path, "data": _schemas.b64encode(data),
             "overwrite": overwrite}, idempotent=False)
        return _schemas.object_info_from_wire(wire)

    def get(self, path: str, *, tenant: Optional[str] = None) -> bytes:
        _status, wire = self._request(
            "GET", self._tenant_path("get", tenant)
            + f"?path={quote(path, safe='')}")
        return _schemas.b64decode(wire.get("data"), what="data")

    def info(self, path: str, *,
             tenant: Optional[str] = None) -> ObjectInfo:
        _status, wire = self._request(
            "GET", self._tenant_path("info", tenant)
            + f"?path={quote(path, safe='')}")
        return _schemas.object_info_from_wire(wire)

    def seal(self, path: str, *, timestamp: Optional[int] = None,
             tenant: Optional[str] = None) -> SealReceipt:
        payload: Dict[str, Any] = {"path": path}
        if timestamp is not None:
            payload["timestamp"] = timestamp
        _status, wire = self._request(
            "POST", self._tenant_path("seal", tenant), payload)
        return _schemas.seal_receipt_from_wire(wire)

    def seal_many(self, paths: List[str], *,
                  timestamp: Optional[int] = None,
                  tenant: Optional[str] = None
                  ) -> List[Union[SealReceipt, MemberFailure]]:
        payload: Dict[str, Any] = {"paths": list(paths)}
        if timestamp is not None:
            payload["timestamp"] = timestamp
        _status, wire = self._request(
            "POST", self._tenant_path("seal_many", tenant), payload)
        return [_schemas.result_slot_from_wire(slot)
                for slot in wire.get("receipts", [])]

    def verify(self, path: str, *,
               tenant: Optional[str] = None) -> VerifyReport:
        _status, wire = self._request(
            "GET", self._tenant_path("verify", tenant)
            + f"?path={quote(path, safe='')}")
        return _schemas.verify_report_from_wire(wire)

    def export_evidence(self, case: str,
                        exhibits: Mapping[str, bytes], *,
                        timestamp: Optional[int] = None,
                        tenant: Optional[str] = None
                        ) -> FleetEvidenceExport:
        payload: Dict[str, Any] = {
            "case": case,
            "exhibits": {name: _schemas.b64encode(data)
                         for name, data in exhibits.items()}}
        if timestamp is not None:
            payload["timestamp"] = timestamp
        _status, wire = self._request(
            "POST", self._tenant_path("export_evidence", tenant),
            payload)
        return FleetEvidenceExport(
            case=wire["fleet_case"],
            exports=tuple(_schemas.evidence_export_from_wire(e)
                          for e in wire.get("exports", [])),
            intact=bool(wire["intact"]))

    def search(self, q: str = "", *,
               facets: Tuple[str, ...] = (),
               limit: Optional[int] = None,
               highlight: bool = False,
               fragment_size: Optional[int] = None,
               fragment_count: Optional[int] = None,
               tenant: Optional[str] = None) -> "SearchResult":
        """Tenant-confined evidence search (typed
        :class:`~repro.search.SearchResult`, same as the in-process
        index's — the server forces the tenant filter)."""
        params = [("q", q)]
        if facets:
            params.append(("facets", ",".join(facets)))
        if limit is not None:
            params.append(("limit", str(limit)))
        if highlight:
            params.append(("highlight", "1"))
        if fragment_size is not None:
            params.append(("fragment_size", str(fragment_size)))
        if fragment_count is not None:
            params.append(("fragment_count", str(fragment_count)))
        _status, wire = self._request(
            "GET", self._tenant_path("search", tenant) + "?"
            + urlencode(params))
        return _schemas.search_result_from_wire(wire)

    # -- admin grain --------------------------------------------------------

    def alerts(self) -> Tuple[List["StandingQuery"],
                              List["TamperAlert"]]:
        """Standing queries plus every fired tamper alert (admin)."""
        _status, wire = self._request("GET", "/v1/admin/alerts")
        return ([_schemas.standing_query_from_wire(sq)
                 for sq in wire.get("standing", [])],
                [_schemas.tamper_alert_from_wire(a)
                 for a in wire.get("alerts", [])])

    def register_alert(self, name: str, query: str, *,
                       tenant: Optional[str] = None
                       ) -> "StandingQuery":
        """Register (or replace) one standing tamper query (admin)."""
        payload: Dict[str, Any] = {"name": name, "query": query}
        if tenant is not None:
            payload["tenant"] = tenant
        _status, wire = self._request("POST", "/v1/admin/alerts",
                                      payload)
        return _schemas.standing_query_from_wire(wire)

    def unregister_alert(self, name: str) -> bool:
        """Drop one standing query; True when it existed (admin)."""
        _status, wire = self._request("POST", "/v1/admin/alerts",
                                      {"unregister": name})
        return bool(wire.get("unregistered", False))

    def audit(self, *, deep: bool = False) -> AuditReport:
        _status, wire = self._request(
            "GET", f"/v1/admin/audit?deep={'1' if deep else '0'}")
        return _schemas.audit_report_from_wire(wire)

    def audit_failures(self, *, deep: bool = False
                       ) -> Tuple[AuditReport, List[MemberFailure]]:
        """Audit plus the degraded pass's failure records (if any)."""
        _status, wire = self._request(
            "GET", f"/v1/admin/audit?deep={'1' if deep else '0'}")
        return (_schemas.audit_report_from_wire(wire),
                [_schemas.member_failure_from_wire(f)
                 for f in wire.get("failures", [])])

    def history(self) -> List[List[Tuple[int, bytes]]]:
        """Per-member self-securing instruction logs."""
        _status, wire = self._request("GET", "/v1/admin/history")
        return [_schemas.history_from_wire(member)
                for member in wire.get("members", [])]

    def describe(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/admin/describe")[1]
