"""Remote RPC fleet executor: fleet members across machines.

The cross-process half of fleet dispatch (``serial`` is the
in-process half).  A member ships to a worker as a compact pickled
snapshot (~1.3 MB for the bench fleet, see
:meth:`repro.medium.medium.PatternedMedium.__getstate__`) and a
read-only pass sends home a ~1 kB
:class:`~repro.api.store.StoreStatePatch`.  This module closes the
loop: the same member tasks, dispatched over TCP to worker daemons on
other hosts, byte-identical to the ``serial`` reference.

Four pieces:

* **wire protocol** — length-prefixed pickle frames
  (:func:`send_frame` / :func:`recv_frame`): a 4-byte magic, an 8-byte
  big-endian body length, then the protocol-5 pickle body, the frame's
  only payload section.  Every request is a ``(request id, verb
  tuple)`` pair — ``("ping",)`` and the session verbs below — and every
  reply echoes its id; a worker closes the connection on a frame that
  is not such a pair.  Responses carry the task's result or a portable
  description of the exception it raised.  When a ``fleet_secret`` is
  configured (``RpcExecutor(secret=...)`` >
  ``repro.engine(fleet_secret=...)`` > installed policy >
  ``REPRO_FLEET_SECRET``) every frame is HMAC-SHA256 signed — magic
  ``SRH2``, a 32-byte digest over header and body after the body — and
  verified with a constant-time compare *before* the body is
  unpickled; unsigned frames are rejected outright, so a peer that
  does not hold the shared secret can neither issue requests nor
  forge replies.  Ahead of that check a receiver parses only the magic
  and the length, and holds only the body bytes that have arrived.
  Without a secret the protocol still authenticates nobody (bare
  ``SRP2`` frames), so :func:`serve` refuses to bind an unsigned
  worker anywhere but loopback (documented in API.md).

* **sessions** — the ``pin``/``run_pinned`` verbs, the one way a
  member task crosses the wire.  A pin ships a member snapshot once
  and caches it on the worker under a ``(client, member)`` key and a
  client-assigned *generation*; later passes send only a task
  descriptor (the store swapped for a placeholder, see
  :mod:`repro.parallel.session`) and fold the returned
  :class:`~repro.api.store.StoreStatePatch` — or, for a mutating pass,
  the returned snapshot — into the caller-held store.  A
  ``run_pinned`` that finds no pin of the requested generation
  (worker restarted, cache evicted, client-side mutation bumped the
  generation) answers ``("nopin",)`` **without running the task**, so
  the client can re-pin and resend on the same connection.  Abandoned
  pins are bounded by the worker's :data:`PIN_CACHE_CAP` LRU.  A pass
  *pipelines*: one socket per host, every round's frames written by a
  writer thread while the replies drain in order, matched by request
  id, so N members on one host cost ~one round trip plus compute.  A
  task that does not close over exactly one member store is a
  ``TypeError`` before anything is dialled: no other callable travels.

* **worker daemon** — :func:`serve`, exposed as
  ``python -m repro.parallel.remote serve --bind HOST:PORT``.  A
  threaded TCP server that hosts pinned member stores: each
  connection unpickles session verbs, runs pinned tasks, and replies
  with ``("ok", (payload, state))`` or the raised exception.
  A member raising inside a pass travels back as the original
  exception object (plus the remote traceback text), so a fleet pass
  fails with the *same* error type whichever executor dispatched it.

* **client executor** — :class:`RpcExecutor` (selected as ``rpc``),
  a :class:`~repro.parallel.executor.FleetExecutor` that resolves its
  host list lazily at each dispatch (explicit ``hosts=`` argument >
  ``with repro.engine(fleet_hosts=...):`` > installed policy >
  ``REPRO_FLEET_HOSTS``), assigns member *i* to the host a
  :class:`~repro.parallel.ring.HashRing` over the host set owns —
  deterministic and stable under host lists given in any order — and
  drives each host's connection from its own thread.  Pass connections
  are pooled module-wide (:data:`_POOL`) so repeated passes reuse warm
  sockets; a :func:`ping` probe dials a connection of its own and
  closes it.  A host round that fails folds nothing, so it is retried
  once on the same host — every member re-pinned from caller-held
  state, which cannot run a task twice on that state (a seal pass
  never heats a line twice) — unless a request deadline expired.

Failure semantics (the fault-injection contract):

* worker process killed → the next frame on its connections hits EOF:
  :class:`RpcConnectionError` naming the host, no member state folded
  back (caller-held references keep their pre-pass state), and the
  surviving hosts' pooled connections stay reusable;
* connection dropped mid-frame (truncated header or body) →
  :class:`RpcConnectionError`; a half-received frame is never
  interpreted;
* member raising inside a pass → the original exception re-raised at
  the caller, ``__cause__``-chained to a :class:`RemoteTaskError`
  carrying the remote traceback and host — and the worker *drops the
  pin* (its copy may be half-mutated) while the client folds nothing;
* pass failing on any host → no member state folded anywhere, every
  session touched by the pass invalidated (the pinned copies may have
  advanced without a client fold), so the next pass re-pins from the
  caller-held state — degraded to re-shipping, never to a stale
  result.
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import ipaddress
import os
import pickle
import random
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..api import policy as _policy
from ..errors import ConfigurationError, ReproError
from . import session as _session
from .executor import (
    ExecutionOutcome,
    FleetExecutor,
    MemberFailure,
    MemberTask,
)
from .ring import HashRing

#: Environment variable naming the worker hosts (``host:port`` items,
#: comma-separated), read lazily at each dispatch.
HOSTS_ENV_VAR = _policy.FLEET_HOSTS_ENV_VAR

#: Frame header: magic + 8-byte big-endian body length.  ``SRP2``
#: frames are unsigned; ``SRH2`` frames carry a trailing HMAC-SHA256
#: digest over header and body.  10.x peers framed with ``SRPC``/
#: ``SRPH`` and buffer segments after the body: a distinct magic makes
#: a mixed-version pair fail on the first frame instead of one side
#: waiting for bytes the other never sends.
_MAGIC = b"SRP2"
_MAGIC_SIGNED = b"SRH2"
_HEADER = struct.Struct(">4sQ")

#: Trailing signature size of an ``SRH2`` frame (HMAC-SHA256).
_DIGEST_BYTES = 32

#: Refuse absurd frames (a desynchronised peer must fail fast).  Checked
#: on the header's length before a body byte is read; the body itself
#: arrives in chunks, so a receiver holds only the bytes that were
#: actually sent, never the length a header merely promises.
#: Generous: a bench member snapshot is ~1.3 MB.
MAX_FRAME_BYTES = 1 << 30

#: Dial attempts for a pass's *fresh* connection (a worker still
#: starting up refuses a few times before it listens).  A probe dials
#: once per round trip; :func:`ping` owns its retries.
DIAL_RETRIES = 10
DIAL_RETRY_DELAY_S = 0.2

#: Failover re-dispatch backoff: wave ``k`` sleeps
#: ``base * 2**k`` seconds (capped), stretched by up to ``JITTER``
#: so a rack of clients re-dispatching off one dead host does not
#: stampede the survivors in lockstep.
FAILOVER_BACKOFF_BASE_S = 0.05
FAILOVER_BACKOFF_CAP_S = 2.0
FAILOVER_BACKOFF_JITTER = 0.25

#: Consecutive wire failures that open a host's circuit breaker.
HEALTH_FAILURE_THRESHOLD = 3

#: Seconds an open breaker keeps a host out of dispatch before a
#: probation ``ping`` may re-admit it.
HEALTH_PROBATION_S = 2.0


class RpcError(ReproError):
    """Base class for remote-fleet RPC failures."""


class RpcConnectionError(RpcError):
    """A worker connection failed: dial refused, worker died, or a
    frame was cut short.  The message names the host."""


class RpcTimeoutError(RpcConnectionError):
    """A per-request socket deadline expired: the worker accepted the
    connection but stopped sending (hung task, wedged process, black-
    holed network).  Subclasses :class:`RpcConnectionError` — a hung
    worker gets the same no-fold/failover treatment as a dead one —
    but stays distinguishable for the per-host timeout stats."""


class RpcProtocolError(RpcError):
    """The peer spoke something that is not the SRPC framing."""


class RemoteTaskError(RpcError):
    """A member task raised on a worker.

    The original exception is re-raised at the caller with this as its
    ``__cause__``; :attr:`host` and :attr:`remote_traceback` preserve
    where and how it failed.
    """

    def __init__(self, message: str, *, host: str = "",
                 remote_traceback: str = "") -> None:
        super().__init__(message)
        self.host = host
        self.remote_traceback = remote_traceback


# ---------------------------------------------------------------------------
# Wire protocol


class _Ambient:
    """Sentinel: resolve the frame secret through the policy chain at
    call time (context > installed policy > ``REPRO_FLEET_SECRET``).
    Distinct from ``None``, which means *explicitly unsigned*."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<ambient fleet secret>"


#: Default for every ``secret=`` parameter in this module.  The worker
#: daemon always runs with the ambient default, so exporting
#: ``REPRO_FLEET_SECRET`` to the worker process is the whole
#: deployment story; the client executor resolves the chain *once* per
#: pass and threads the value explicitly, because context-variable
#: overrides do not propagate into its dispatch threads.
_AMBIENT = _Ambient()


def _resolve_secret(secret: Any) -> Optional[str]:
    if isinstance(secret, _Ambient):
        return _policy.resolve_fleet_secret(None)[0]
    return secret


def _frame_digest(secret: str, header: bytes, body: bytes) -> bytes:
    """HMAC-SHA256 of a signed frame's header and body."""
    mac = hmac.new(secret.encode("utf-8"), header, hashlib.sha256)
    mac.update(body)
    return mac.digest()


def send_frame(sock: socket.socket, message: Any, *,
               secret: Any = _AMBIENT) -> int:
    """Pickle ``message`` and send it as one length-prefixed frame.

    The frame is the 12-byte header (magic, 8-byte big-endian body
    length), the protocol-5 pickle body and — when signed — a 32-byte
    HMAC-SHA256 digest over header and body, written in one
    ``sendall``.  Returns the body size in bytes, excluding framing
    overhead (the transport-accounting hook the benchmarks and the
    per-pass byte counters use).

    With a ``secret`` (explicit string, or the ambient policy chain
    when one is configured) the frame goes out under the ``SRH2``
    magic; ``secret=None`` forces an unsigned ``SRP2`` frame.
    """
    resolved = _resolve_secret(secret)
    body = pickle.dumps(message, protocol=5)
    magic = _MAGIC if resolved is None else _MAGIC_SIGNED
    header = _HEADER.pack(magic, len(body))
    parts = [header, body]
    if resolved is not None:
        parts.append(_frame_digest(resolved, header, body))
    sock.sendall(b"".join(parts))
    return len(body)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`RpcConnectionError`.

    A connection dropped mid-frame surfaces here: the peer closed (or
    died) with ``what`` only partially delivered, and a partial frame
    must never be interpreted.  Reads at most 1 MiB at a time, so what
    this holds grows with the bytes that arrive, not with ``n``.
    """
    chunks: List[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except TimeoutError as exc:  # the per-request socket deadline
            raise RpcTimeoutError(
                f"socket deadline expired mid-frame ({got}/{n} bytes of "
                f"{what}); the peer is hung or the network stalled"
            ) from exc
        if not chunk:
            raise RpcConnectionError(
                f"connection closed mid-frame ({got}/{n} bytes of {what}); "
                "the peer dropped the link or its process died")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_frame_counted(sock: socket.socket, *,
                        secret: Any = _AMBIENT) -> Tuple[Any, int]:
    """(message, body bytes received) for one frame.

    Ahead of the signature check only the header is parsed: the magic,
    and the body length, which must be within :data:`MAX_FRAME_BYTES`
    before a body byte is read.

    With a ``secret`` in force, only ``SRH2`` frames are accepted and
    the trailing digest is checked with :func:`hmac.compare_digest`
    *before* ``pickle.loads`` runs — an unauthenticated peer never
    reaches the deserialiser.  An unsigned ``SRP2`` frame is rejected
    when a secret is set, and a signed frame is rejected when no
    secret is configured (this peer cannot verify it): both sides must
    agree on the secret, which is the point.
    """
    resolved = _resolve_secret(secret)
    try:
        first = sock.recv(1)
    except TimeoutError as exc:
        raise RpcTimeoutError(
            "socket deadline expired waiting for a frame; the peer is "
            "hung or the network stalled") from exc
    if not first:
        raise EOFError("peer closed between frames")
    header = first + _recv_exact(sock, _HEADER.size - 1, "frame header")
    magic, length = _HEADER.unpack(header)
    if magic not in (_MAGIC, _MAGIC_SIGNED):
        raise RpcProtocolError(
            f"bad frame magic {magic!r}: not an SRPC 11.x peer (10.x "
            "framed with SRPC/SRPH — upgrade workers and clients "
            "together), or the stream desynchronised")
    if resolved is not None and magic != _MAGIC_SIGNED:
        raise RpcProtocolError(
            "unsigned SRPC frame rejected: this peer requires "
            "HMAC-signed frames (a fleet secret is configured; the "
            "sender has none, or a stale one-sided deployment)")
    if resolved is None and magic == _MAGIC_SIGNED:
        raise RpcProtocolError(
            "HMAC-signed SRPC frame received but this peer has no "
            "fleet secret to verify it; configure the shared "
            "REPRO_FLEET_SECRET on both sides")
    if length > MAX_FRAME_BYTES:
        raise RpcProtocolError(f"frame of {length} bytes exceeds the "
                               f"{MAX_FRAME_BYTES}-byte cap")
    body = _recv_exact(sock, length, "frame body")
    if resolved is not None:
        digest = _recv_exact(sock, _DIGEST_BYTES, "frame signature")
        if not hmac.compare_digest(
                _frame_digest(resolved, header, body), digest):
            raise RpcProtocolError(
                "frame signature mismatch: the peer signed with a "
                "different fleet secret, or the frame was tampered "
                "with in transit")
    return pickle.loads(body), length


def recv_frame(sock: socket.socket, *, secret: Any = _AMBIENT) -> Any:
    """Receive one frame and unpickle it.

    Raises :class:`RpcConnectionError` on a truncated frame and
    :class:`RpcProtocolError` on bad framing — including a missing,
    unverifiable, or wrong HMAC signature when a secret is in force
    (see :func:`_recv_frame_counted`).  ``None`` is a valid message,
    not a sentinel: end-of-stream *between* frames raises ``EOFError``
    (the orderly-shutdown signal the server loop uses).
    """
    return _recv_frame_counted(sock, secret=secret)[0]


# ---------------------------------------------------------------------------
# Worker daemon

#: Worker-global pin cache: ``(client, member) key -> (generation,
#: pinned store)``.  LRU-capped so an abandoned client cannot grow a
#: worker without bound; an evicted pin costs the owner one ``nopin``
#: round trip and a re-pin, never a wrong result.
PIN_CACHE_CAP = 1024
_PINS: "OrderedDict[Any, Tuple[int, Any]]" = OrderedDict()
_PINS_LOCK = threading.Lock()


def _run_task(task: Any) -> Tuple:
    try:
        result = task()
    except BaseException as exc:  # noqa: BLE001 — shipped to caller
        try:
            portable: Optional[BaseException] = pickle.loads(
                pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        except Exception:
            portable = None
        return ("err", portable, type(exc).__name__, str(exc),
                traceback.format_exc())
    return ("ok", result)


def _execute_request(verb: Tuple) -> Tuple:
    """The response to one verb tuple (its envelope already checked)."""
    op = verb[0]
    if op == "ping":
        return ("pong", os.getpid())
    if op == "pin":
        _op, key, generation, snapshot = verb
        with _PINS_LOCK:
            _PINS[key] = (generation, snapshot)
            _PINS.move_to_end(key)
            while len(_PINS) > PIN_CACHE_CAP:
                _PINS.popitem(last=False)
        return ("pinned",)
    if op == "run_pinned":
        _op, key, generation, task = verb
        with _PINS_LOCK:
            entry = _PINS.get(key)
            if entry is not None and entry[0] == generation:
                _PINS.move_to_end(key)
                pinned = entry[1]
            else:
                pinned = None
        if pinned is None:
            # missing or stale pin: the task did NOT run, which is
            # what makes a client-side re-pin + resend safe
            return ("nopin",)
        response = _run_task(_session.bind_pinned(task, pinned))
        if response[0] == "err":
            # the pinned copy may be half-mutated: never serve it again
            with _PINS_LOCK:
                _PINS.pop(key, None)
        return response
    return ("err", None, "RpcProtocolError",
            f"unknown request op {op!r}", "")


class _WorkerHandler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        # as _dial does on the client's end: a reply longer than one
        # segment must not hold its tail for the client's delayed ACK
        # (a 40 ms stall on most steady-state audit replies, and on
        # which of them it fell differed from run to run)
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self) -> None:  # one connection: frames until EOF
        while True:
            try:
                request = recv_frame(self.request)
            except (EOFError, RpcError, OSError):
                return  # a non-SRPC peer gets silence, not a stack dump
            if not (isinstance(request, tuple) and len(request) == 2
                    and isinstance(request[0], int)
                    and isinstance(request[1], tuple) and request[1]):
                return  # not a (request id, verb) pair: drop the peer
            rid, verb = request
            try:
                send_frame(self.request, (rid, _execute_request(verb)))
            except OSError:
                return


class _WorkerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _is_loopback(host: str) -> bool:
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host.strip("[]")).is_loopback
    except ValueError:
        return False  # any other name may resolve to any interface


def serve(bind: str, *, announce=print) -> None:
    """Run a worker daemon on ``bind`` (``host:port``; port 0 picks a
    free one) until interrupted.  ``announce`` receives one
    ``"SRPC listening on host:port"`` line once the socket accepts —
    launchers parse it to learn an ephemeral port.

    An unsigned worker unpickles frames from whoever can reach its
    port, so a non-loopback ``bind`` is refused (before the socket
    binds) unless a ``fleet_secret`` resolves.
    """
    host, port = parse_host(bind)
    if not _is_loopback(host) \
            and _policy.resolve_fleet_secret(None)[0] is None:
        raise ConfigurationError(
            f"refusing to serve unsigned SRPC on non-loopback {bind!r}: "
            "frames are unpickled, so any peer that reaches the port "
            "could run code here; export "
            f"{_policy.FLEET_SECRET_ENV_VAR} on the worker and its "
            "clients, or bind a loopback address")
    with _WorkerServer((host, port), _WorkerHandler) as server:
        bound_host, bound_port = server.server_address[:2]
        announce(f"SRPC listening on {bound_host}:{bound_port}")
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass


# ---------------------------------------------------------------------------
# Host parsing


def parse_host(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with validation."""
    host, sep, port_text = str(spec).strip().rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"fleet host must be 'host:port', got {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"fleet host port must be an integer, got {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"fleet host port out of range: {spec!r}")
    return host, port


def parse_hosts(spec: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    """Normalise a host list (string ``"h:p,h:p"`` or sequence) to a
    canonical tuple: validated, sorted, duplicates rejected.

    Sorting makes everything downstream order-independent: two nodes
    configured with the same hosts in different orders build the same
    :class:`HashRing` and assign members identically.  A *duplicated*
    host is a configuration error, not a bigger host: silently
    de-duplicating would let two nodes that disagree about the list
    believe they agree, and the placement/health layers key per
    address — so it is rejected outright.
    """
    if isinstance(spec, str):
        items = [item for item in spec.replace(",", " ").split() if item]
    else:
        items = [str(item) for item in spec]
    if not items:
        raise ConfigurationError("fleet host list is empty")
    canonical: List[str] = []
    seen: Dict[str, str] = {}
    for item in items:
        host, port = parse_host(item)
        key = f"{host}:{port}"
        if key in seen:
            duplicate = f" (as {seen[key]!r} and {item!r})" \
                if {seen[key], str(item).strip()} != {key} else ""
            raise ConfigurationError(
                f"duplicate fleet host {key!r}{duplicate}: each worker "
                "may be listed once — listing it twice would skew "
                "HashRing placement and double-count its health")
        seen[key] = str(item).strip()
        canonical.append(key)
    return tuple(sorted(canonical))


# ---------------------------------------------------------------------------
# Client connection pool (module-wide: RpcExecutor instances resolve
# their hosts lazily, so the sockets — keyed by address, not by
# instance — are shared and survive between passes.  Only pass rounds
# use it; probes dial their own.  repro.parallel.close_executors()
# closes this pool too.)

_POOL: Dict[str, List[socket.socket]] = {}
_POOL_LOCK = threading.Lock()


def _pooled_connections(addr: Optional[str] = None) -> int:
    """Idle pooled connections (diagnostics/tests)."""
    with _POOL_LOCK:
        if addr is not None:
            return len(_POOL.get(addr, ()))
        return sum(len(socks) for socks in _POOL.values())


def close_connection_pools() -> int:
    """Close every idle pooled worker connection; returns the count.

    Connections checked out by an in-flight pass are not touched —
    they return to a now-empty pool when the pass completes.
    """
    with _POOL_LOCK:
        sockets = [s for socks in _POOL.values() for s in socks]
        _POOL.clear()
    for sock in sockets:
        try:
            sock.close()
        except OSError:
            pass
    return len(sockets)


def _dial(addr: str, *, retries: int = DIAL_RETRIES,
          timeout: Optional[float] = None) -> socket.socket:
    """Fresh connection to ``addr``, retrying brief refusals."""
    host, port = parse_host(addr)
    last: Optional[Exception] = None
    for attempt in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < retries:
                time.sleep(DIAL_RETRY_DELAY_S)
    raise RpcConnectionError(
        f"cannot reach fleet worker at {addr}: {last}") from last


def _borrow(addr: str, deadline: Optional[float] = None, *,
            dial_retries: int = DIAL_RETRIES) -> socket.socket:
    """A pass connection to ``addr``: pooled, or freshly dialled.

    ``deadline`` is the per-request socket timeout in seconds (None =
    block forever, the pre-fault-tolerance behaviour); it is re-armed
    on every borrow, so a socket parked in the pool with a deadline
    set never surprises its next, deadline-free borrower.
    """
    with _POOL_LOCK:
        pooled = _POOL.get(addr)
        if pooled:
            sock = pooled.pop()
            sock.settimeout(deadline)
            return sock
    sock = _dial(addr, retries=dial_retries,
                 timeout=deadline if deadline else None)
    sock.settimeout(deadline)
    return sock


def _give_back(addr: str, sock: socket.socket) -> None:
    with _POOL_LOCK:
        _POOL.setdefault(addr, []).append(sock)


def _discard(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _recv_reply(addr: str, sock: socket.socket, *,
                secret: Any = _AMBIENT) -> Tuple[Any, int]:
    """(reply, bytes received) after a delivered request; any failure
    discards the socket and raises :class:`RpcConnectionError` (the
    request may have been served, so nothing here retries it).  An
    expired socket deadline keeps its :class:`RpcTimeoutError` type
    for the per-host timeout stats."""
    try:
        return _recv_frame_counted(sock, secret=secret)
    except EOFError as exc:
        _discard(sock)
        raise RpcConnectionError(
            f"fleet worker at {addr} closed the connection before "
            "replying (worker killed mid-task?)") from exc
    except RpcTimeoutError as exc:
        _discard(sock)
        raise RpcTimeoutError(
            f"no reply from fleet worker at {addr} within the request "
            f"deadline; the worker is hung or the network stalled"
        ) from exc
    except (RpcConnectionError, RpcProtocolError):
        _discard(sock)
        raise RpcConnectionError(
            f"reply from fleet worker at {addr} was cut short or "
            "malformed; the connection dropped mid-frame")
    except (ConnectionError, OSError) as exc:
        _discard(sock)
        raise RpcConnectionError(
            f"connection to fleet worker at {addr} failed mid-reply: "
            f"{exc}") from exc


def call_worker(addr: str, request: Tuple, *,
                deadline: Optional[float] = None,
                secret: Any = _AMBIENT) -> Any:
    """One request/response round trip with ``addr`` on a connection
    of its own: one dial attempt, ``request`` sent under request id 0,
    the echoed id checked, the connection closed afterwards.  Probes
    leave the pass pool alone and never retry — :func:`ping` owns the
    retrying.  Any failure raises :class:`RpcConnectionError` (a
    request that may have been delivered is never sent twice);
    ``deadline`` bounds the dial and every blocking socket operation,
    and its expiry raises :class:`RpcTimeoutError`.
    """
    sock = _dial(addr, retries=1, timeout=deadline)
    try:
        try:
            send_frame(sock, (0, request), secret=secret)
        except TimeoutError as exc:
            raise RpcTimeoutError(
                f"request to fleet worker at {addr} stalled past the "
                f"socket deadline while sending") from exc
        except OSError as exc:
            raise RpcConnectionError(
                f"fleet worker at {addr} rejected the request: "
                f"{exc}") from exc
        reply, _received = _recv_reply(addr, sock, secret=secret)
    finally:
        _discard(sock)
    if not (isinstance(reply, tuple) and len(reply) == 2 and reply[0] == 0):
        raise RpcProtocolError(
            f"fleet worker at {addr} answered another request: {reply!r}")
    return reply[1]


def ping(addr: str, *, timeout: float = 5.0,
         secret: Any = _AMBIENT) -> int:
    """Round-trip a ping; returns the worker's PID.  Retries every
    :data:`DIAL_RETRY_DELAY_S` for up to ``timeout`` seconds in all,
    so it also waits for a worker to start listening; each round trip
    carries ``timeout`` as its socket deadline, so a worker that
    *accepts* but never answers (hung event loop) fails the ping
    instead of blocking it forever.  The probe frame is signed like
    any other when a secret is in force — a secret-bearing worker
    would reject an unsigned ping, and an unverifiable probe must
    read as *down*, not healthy."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            response = call_worker(addr, ("ping",), deadline=timeout,
                                   secret=secret)
        except RpcConnectionError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(DIAL_RETRY_DELAY_S)
            continue
        if not (isinstance(response, tuple) and response[0] == "pong"):
            raise RpcProtocolError(f"unexpected ping reply: {response!r}")
        return int(response[1])


# ---------------------------------------------------------------------------
# Per-host health (module-wide, like the connection pool: executor
# instances come and go, the rack's health does not)


class _HostHealth:
    """Mutable health book entry for one worker address."""

    __slots__ = ("consecutive_failures", "open_until",
                 "total_failures", "total_timeouts")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.total_failures = 0
        self.total_timeouts = 0


_HEALTH: Dict[str, _HostHealth] = {}
_HEALTH_LOCK = threading.Lock()


def record_host_success(addr: str) -> None:
    """A round trip with ``addr`` completed: close its breaker."""
    with _HEALTH_LOCK:
        entry = _HEALTH.get(addr)
        if entry is not None:
            entry.consecutive_failures = 0
            entry.open_until = 0.0


def record_host_failure(addr: str, *, timed_out: bool = False) -> None:
    """A wire round trip with ``addr`` failed.  After
    :data:`HEALTH_FAILURE_THRESHOLD` *consecutive* failures the host's
    circuit breaker opens for :data:`HEALTH_PROBATION_S` seconds:
    dispatch stops routing members to it until a probation
    :func:`ping` proves it back."""
    with _HEALTH_LOCK:
        entry = _HEALTH.setdefault(addr, _HostHealth())
        entry.consecutive_failures += 1
        entry.total_failures += 1
        if timed_out:
            entry.total_timeouts += 1
        if entry.consecutive_failures >= HEALTH_FAILURE_THRESHOLD:
            entry.open_until = time.monotonic() + HEALTH_PROBATION_S


def reset_host_health() -> None:
    """Forget all recorded host health (tests, fresh soak runs)."""
    with _HEALTH_LOCK:
        _HEALTH.clear()


def host_health_snapshot() -> Dict[str, Dict[str, float]]:
    """Diagnostics: per-host failure/timeout counters and breaker
    state, for operators and the soak report."""
    with _HEALTH_LOCK:
        return {
            addr: {
                "consecutive_failures": entry.consecutive_failures,
                "total_failures": entry.total_failures,
                "total_timeouts": entry.total_timeouts,
                "breaker_open": entry.consecutive_failures
                >= HEALTH_FAILURE_THRESHOLD,
            }
            for addr, entry in _HEALTH.items()
        }


def usable_hosts(hosts: Sequence[str], *,
                 probe_timeout: float = 1.0,
                 force_probe: bool = False,
                 secret: Any = _AMBIENT) -> Tuple[str, ...]:
    """The subset of ``hosts`` dispatch may route members to.

    Hosts with a closed breaker pass straight through (the common,
    lock-only path).  A host whose breaker is open is skipped while
    its probation window runs; once the window elapses it gets one
    :func:`ping` probe — success closes the breaker and re-admits it,
    failure re-opens the window.  Order is preserved (the host list is
    canonical/sorted, and placement must stay a pure function of it).

    ``force_probe`` probes open-breaker hosts even inside their
    probation window — the desperation path a failover wave takes
    when every admitted host just failed, so a freshly restarted
    worker can be re-admitted immediately rather than the pass dying
    while a live host waits out its window.
    """
    admitted: List[str] = []
    for addr in hosts:
        with _HEALTH_LOCK:
            entry = _HEALTH.get(addr)
            open_ = entry is not None and \
                entry.consecutive_failures >= HEALTH_FAILURE_THRESHOLD
            on_probation = open_ and time.monotonic() >= entry.open_until
        if not open_:
            admitted.append(addr)
            continue
        if not (on_probation or force_probe):
            continue
        try:
            ping(addr, timeout=probe_timeout, secret=secret)
        except (RpcError, OSError):
            record_host_failure(addr)  # re-opens the probation window
            continue
        record_host_success(addr)
        admitted.append(addr)
    return tuple(admitted)


# ---------------------------------------------------------------------------
# The executor


class _TaskPlan:
    """One member task's dispatch plan inside a pass: the member store
    it closes over, the task with that store stripped out (see
    :func:`~repro.parallel.session.split_task`), and the store's
    session."""

    __slots__ = ("index", "store", "stripped", "session")

    def __init__(self, index: int, store: Any, stripped: Any) -> None:
        self.index = index
        self.store = store
        self.stripped = stripped
        self.session = _session.session_for(store)


class RpcExecutor(FleetExecutor):
    """Dispatch fleet passes to remote worker daemons over TCP.

    Args:
        hosts: worker addresses (``"host:port"`` items, or one
            comma-separated string).  None resolves lazily at *each*
            dispatch through the policy chain
            (``repro.engine(fleet_hosts=...)`` > installed policy >
            ``REPRO_FLEET_HOSTS``), so exporting the variable after the
            fleet exists still works.
        timeout: per-request socket deadline in seconds; a worker that
            stops sending for this long surfaces as
            :class:`RpcTimeoutError` instead of blocking the pass
            forever.  None resolves through the policy chain
            (``repro.engine(fleet_timeout=...)`` > installed policy >
            ``REPRO_FLEET_TIMEOUT``; default: no deadline).
        retries: failover re-dispatch waves for members whose host
            failed mid-pass.  A failed host folds zero partial state,
            so its members re-place on a :class:`HashRing` over the
            surviving hosts (exponential backoff + jitter between
            waves) and re-run byte-identically from caller-held state.
            None resolves through the chain
            (``repro.engine(fleet_retries=...)`` >
            ``REPRO_FLEET_RETRIES``; default 0 — fail fast, the PR 5
            contract).
        on_failure: ``"raise"`` (default) aborts the pass on the first
            exhausted member; ``"degrade"`` returns exhausted members
            as typed :class:`~repro.parallel.MemberFailure` records in
            their result slots so the surviving members' pass still
            folds.  Resolves through the chain
            (``repro.engine(fleet_on_failure=...)`` >
            ``REPRO_FLEET_ON_FAILURE``).
        secret: shared HMAC secret for signed SRPC frames.  None
            resolves through the chain
            (``repro.engine(fleet_secret=...)`` > installed policy >
            ``REPRO_FLEET_SECRET``; default: unsigned).  Resolved
            *once* per pass and threaded explicitly through every
            dispatch thread and health probe — a context-scoped
            secret must hold even though context variables do not
            cross into the executor's per-host threads.

    Member *i* goes to the host that owns ``"member-i"`` on a
    consistent-hash ring over the host set — a pure function of the
    canonicalised host list, so every node that knows the same hosts
    (in any order) computes the same placement, and growing the host
    list remaps only its ring share of members.  Hosts whose circuit
    breaker is open (:data:`HEALTH_FAILURE_THRESHOLD` consecutive
    failures) are excluded from the ring until a probation ``ping``
    re-admits them, so a dead host stops receiving work instead of
    charging every pass a timeout.
    """

    name = "rpc"
    crosses_process = True  # results cross a machine boundary

    def __init__(self, hosts: Union[None, str, Sequence[str]] = None, *,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 on_failure: Optional[str] = None,
                 secret: Optional[str] = None) -> None:
        self.hosts = parse_hosts(hosts) if hosts is not None else None
        self.timeout = timeout
        self.retries = retries
        self.on_failure = on_failure
        self.secret = secret

    def _resolve_hosts(self) -> Tuple[str, ...]:
        if self.hosts is not None:
            return self.hosts
        # lazy, like every other policy switch: read at dispatch time
        hosts, _source = _policy.resolve_fleet_hosts(None)
        if not hosts:
            raise ConfigurationError(
                "the rpc executor needs worker hosts: pass "
                "RpcExecutor(hosts=[...]), scope "
                "repro.engine(fleet_hosts=...), or export "
                f"{HOSTS_ENV_VAR}=host:port,host:port (start workers "
                "with `python -m repro.parallel.remote serve`)")
        return parse_hosts(hosts)

    @staticmethod
    def _member_error(addr: str, response: Tuple) -> BaseException:
        """The exception to raise for an ``("err", ...)`` reply: the
        original (portable) exception ``__cause__``-chained to a
        :class:`RemoteTaskError` naming the worker."""
        _tag, portable, etype, message, tb = response
        cause = RemoteTaskError(
            f"member task raised {etype} on fleet worker {addr}: "
            f"{message}\n--- remote traceback ---\n{tb}",
            host=addr, remote_traceback=tb)
        if isinstance(portable, BaseException):
            portable.__cause__ = cause
            return portable
        return cause

    def _resolve_fault_policy(
            self) -> Tuple[Optional[float], int, str, Optional[str]]:
        """(timeout, retries, on_failure, secret) through the policy
        chain — the secret resolved here, on the caller's thread, so a
        ``repro.engine(fleet_secret=...)`` scope reaches the dispatch
        threads it would otherwise never propagate into."""
        deadline, _src = _policy.resolve_fleet_timeout(self.timeout)
        retries, _src = _policy.resolve_fleet_retries(self.retries)
        on_failure, _src = _policy.resolve_fleet_on_failure(
            self.on_failure)
        secret, _src = _policy.resolve_fleet_secret(self.secret)
        return deadline, retries, on_failure, secret

    @staticmethod
    def _backoff_sleep(wave: int) -> None:
        """Exponential backoff with jitter between failover waves —
        gives a briefly wedged host (GC pause, packet loss) room to
        come back before its members re-place, and decorrelates the
        retry stampede when several clients share a fleet."""
        delay = min(FAILOVER_BACKOFF_CAP_S,
                    FAILOVER_BACKOFF_BASE_S * (2 ** wave))
        time.sleep(delay * (1.0 + FAILOVER_BACKOFF_JITTER
                            * random.random()))

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        """One pass: a dedicated pipelined socket per host, member
        state folded only after *every* host round settled, every
        touched session invalidated on any raise-mode failure.

        Failover works per *host round* in bounded waves: wave *k*
        places every still-pending member on a :class:`HashRing` over
        the hosts that survived waves ``0..k-1``.  Safe because a host
        whose wire round died folds zero partial state (the fold is
        the client-side ``_fold_result``, which never ran) — the
        caller still holds the only authoritative copy — so its
        members' sessions invalidate and the members re-pin from
        caller-held state on another host and re-run byte-identically.
        Member *task* errors are deterministic and never requeue; they
        raise (or degrade) as they are.

        Every task must close over exactly one member store (see
        :data:`~repro.parallel.executor.MemberTask`); any other is a
        ``TypeError`` raised before a host is resolved or dialled.
        """
        plans: List[_TaskPlan] = []
        for index, task in enumerate(tasks):
            split = _session.split_task(task)
            if split is None:
                raise TypeError(
                    f"the rpc executor runs member tasks — a "
                    f"functools.partial closing over exactly one "
                    f"TamperEvidentStore; task {index} ({task!r}) is not "
                    f"one")
            stripped, store = split
            plans.append(_TaskPlan(index, store, stripped))
        hosts = self._resolve_hosts()
        if not plans:
            return ExecutionOutcome(hosts=hosts)
        deadline, retries, on_failure, secret = \
            self._resolve_fault_policy()
        live = list(usable_hosts(hosts, secret=secret))
        if not live:
            # every breaker is open: probe them all right now rather
            # than failing a pass that a restarted worker could serve
            live = list(usable_hosts(hosts, force_probe=True,
                                     secret=secret))
        if not live:
            raise RpcConnectionError(
                "no usable fleet worker hosts: every host's circuit "
                f"breaker is open ({', '.join(hosts)}) and none "
                "answered a probe; restart the workers")

        completed: Dict[int, Any] = {}
        member_failed: Dict[int, Tuple[str, BaseException]] = {}
        wire_failed: Dict[int, Tuple[List[str], BaseException]] = {}
        tried: Dict[int, List[str]] = {p.index: [] for p in plans}
        bytes_out: Dict[str, int] = {}
        bytes_back: Dict[str, int] = {}
        retry_stats: Dict[str, int] = {}
        timeout_stats: Dict[str, int] = {}
        fatal: List[BaseException] = []
        pending = list(plans)
        wave = 0

        while pending and not fatal:
            ring = HashRing(tuple(live))
            by_host: "OrderedDict[str, List[_TaskPlan]]" = OrderedDict()
            for plan in pending:
                addr = ring.lookup(f"member-{plan.index}")
                by_host.setdefault(addr, []).append(plan)

            round_results: Dict[str, Tuple[List, List, int, int]] = {}
            round_errors: Dict[str, RpcConnectionError] = {}
            gate = threading.Lock()

            def drive(addr: str, host_plans: List[_TaskPlan]) -> None:
                try:
                    result = self._drive_host(
                        addr, host_plans, deadline, secret)
                except RpcConnectionError as exc:
                    with gate:
                        round_errors[addr] = exc
                except BaseException as exc:  # noqa: BLE001
                    with gate:
                        fatal.append(exc)
                else:
                    with gate:
                        round_results[addr] = result

            threads = [threading.Thread(target=drive, args=item,
                                        name=f"rpc-client-{item[0]}",
                                        daemon=True)
                       for item in by_host.items()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            requeue: List[_TaskPlan] = []
            for addr, host_plans in by_host.items():
                if addr in round_results:
                    items, errs, sent, received = round_results[addr]
                    record_host_success(addr)
                    bytes_out[addr] = bytes_out.get(addr, 0) + sent
                    bytes_back[addr] = \
                        bytes_back.get(addr, 0) + received
                    completed.update(items)
                    for plan, exc in errs:
                        member_failed[plan.index] = (addr, exc)
                elif addr in round_errors:
                    exc = round_errors[addr]
                    timed_out = isinstance(exc, RpcTimeoutError)
                    record_host_failure(addr, timed_out=timed_out)
                    if timed_out:
                        timeout_stats[addr] = \
                            timeout_stats.get(addr, 0) + 1
                    for plan in host_plans:
                        tried[plan.index].append(addr)
                        # the pinned copy's state is unknowable: the
                        # next dispatch must re-pin from the
                        # caller-held store
                        plan.session.invalidate()
                        requeue.append(plan)
                # hosts in neither dict hit the fatal path

            pending = requeue
            if not pending or fatal:
                break
            survivors = [h for h in live if h not in round_errors]
            if not survivors and wave < retries:
                # every admitted host just failed: desperation probe —
                # re-admit a restarted worker ahead of its probation
                # window rather than abort with live hosts in reach
                survivors = [
                    h for h in usable_hosts(hosts, force_probe=True,
                                            secret=secret)
                    if h not in round_errors]
            if wave >= retries or not survivors:
                for plan in pending:
                    addr = tried[plan.index][-1]
                    wire_failed[plan.index] = (
                        list(tried[plan.index]), round_errors[addr])
                pending = []
                break
            for plan in pending:
                addr = tried[plan.index][-1]
                retry_stats[addr] = retry_stats.get(addr, 0) + 1
            live = survivors
            self._backoff_sleep(wave)
            wave += 1

        if fatal or ((wire_failed or member_failed)
                     and on_failure != "degrade"):
            # the pinned copies may have advanced without a client
            # fold: nothing is folded, and every session this pass
            # touched must re-pin from caller-held state next time
            for plan in plans:
                plan.session.invalidate()
            if fatal:
                raise fatal[0]
            failures: Dict[int, BaseException] = {
                i: exc for i, (_hosts, exc) in wire_failed.items()}
            for i, (_addr, exc) in member_failed.items():
                failures.setdefault(i, exc)
            raise failures[min(failures)]

        outcome = ExecutionOutcome(
            hosts=hosts, bytes_out=bytes_out, bytes_back=bytes_back,
            retries=retry_stats, timeouts=timeout_stats)
        for plan in plans:
            if plan.index in completed:
                outcome.results.append(
                    self._fold_result(plan, completed[plan.index]))
                continue
            if plan.index in member_failed:
                addr, exc = member_failed[plan.index]
                # the worker ran the task far enough to raise: the
                # pinned copy's state is unknowable
                plan.session.invalidate()
                failure = MemberFailure(
                    index=plan.index, error_type=type(exc).__name__,
                    message=str(exc),
                    hosts_tried=tuple(tried[plan.index]) + (addr,),
                    attempts=len(tried[plan.index]) + 1)
            else:
                hosts_tried, exc = wire_failed[plan.index]
                failure = MemberFailure(
                    index=plan.index, error_type=type(exc).__name__,
                    message=str(exc), hosts_tried=tuple(hosts_tried),
                    attempts=len(hosts_tried),
                    timed_out=isinstance(exc, RpcTimeoutError))
            outcome.results.append(failure)
            outcome.failures.append(failure)
        return outcome

    @staticmethod
    def _fold_result(plan: _TaskPlan, result: Any) -> Any:
        """Fold a pinned task's returned state into the caller-held
        store and re-arm the session for the next pass."""
        if not (isinstance(result, tuple) and len(result) == 2):
            # not the (payload, state) member contract: nothing to
            # fold, and the pinned copy's state is unknowable
            plan.session.invalidate()
            return result
        from ..api.fleet import fold_member_state

        payload, state = result
        fold_member_state(plan.store, state)
        # worker copy and caller store advanced identically (the
        # byte-identity contract of the patch transport): re-capture
        # the fingerprint so the next pass reuses the pin
        plan.session.fingerprint = _session.store_fingerprint(plan.store)
        # hand the *original* store back so the fleet-level fold
        # (fold_member_state(original, state)) is a no-op
        return payload, plan.store

    def _drive_host(self, addr: str, plans: List[_TaskPlan],
                    deadline: Optional[float] = None,
                    secret: Any = _AMBIENT
                    ) -> Tuple[List, List, int, int]:
        """All of one host's requests for a pass, retried once on the
        same host when the wire round fails: nothing from a failed
        round is folded, so re-pinning every member from caller-held
        state and resending cannot double-run anything, even where the
        worker executed some of the requests.  Deadline expiries never
        retry on the same host: a hung worker would just eat a second
        deadline — failover handles it instead."""
        for attempt in (0, 1):
            # the dial grace is for a worker still starting up; a host
            # that just dropped an established round gets one redial,
            # so a dead one costs a refusal, not the whole grace
            sock = _borrow(
                addr, deadline,
                dial_retries=DIAL_RETRIES if attempt == 0 else 1)
            try:
                return self._host_round(addr, sock, plans, secret)
            except RpcTimeoutError:
                raise
            except RpcConnectionError:
                if attempt:
                    raise
                for plan in plans:
                    plan.session.invalidate()
        raise AssertionError("unreachable")  # pragma: no cover

    def _host_round(self, addr: str, sock: socket.socket,
                    plans: List[_TaskPlan],
                    secret: Any = _AMBIENT
                    ) -> Tuple[List, List, int, int]:
        requests: List[Tuple[str, _TaskPlan, Tuple]] = []
        for plan in plans:
            sess = plan.session
            current = sess.pin_current(addr) and \
                sess.fingerprint is not None and \
                sess.fingerprint == _session.store_fingerprint(plan.store)
            if not current:
                # new generation: any pin of the old state, on any
                # worker, must never serve again
                sess.invalidate()
                requests.append(("pin", plan, (
                    "pin", sess.key, sess.generation, plan.store)))
            requests.append(("runp", plan, (
                "run_pinned", sess.key, sess.generation, plan.stripped)))

        counters = {"sent": 0, "received": 0}
        items: List[Tuple[int, Any]] = []
        member_errors: List[Tuple[_TaskPlan, BaseException]] = []
        nopins: List[_TaskPlan] = []

        def send_one(rid: int, payload: Tuple) -> None:
            try:
                nbytes = send_frame(sock, (rid, payload),
                                    secret=secret)
            except (ConnectionError, OSError) as exc:
                _discard(sock)
                raise RpcConnectionError(
                    f"fleet worker at {addr} rejected the request: "
                    f"{exc}") from exc
            counters["sent"] += nbytes

        def recv_one(rid: int, kind: str, plan: _TaskPlan) -> None:
            reply, nbytes = _recv_reply(addr, sock, secret=secret)
            counters["received"] += nbytes
            if not (isinstance(reply, tuple) and len(reply) == 2
                    and reply[0] == rid):
                _discard(sock)
                raise RpcProtocolError(
                    f"fleet worker at {addr} answered out of order "
                    f"(expected request {rid}, got {reply!r})")
            response = reply[1]
            tag = response[0] if isinstance(response, tuple) and response \
                else None
            if kind == "pin":
                if tag != "pinned":
                    _discard(sock)
                    raise RpcProtocolError(
                        f"unexpected pin reply {response!r} from "
                        f"worker at {addr}")
                plan.session.pins[addr] = plan.session.generation
                return
            if tag == "ok":
                items.append((plan.index, response[1]))
                return
            if tag == "nopin":
                nopins.append(plan)
                return
            if tag == "err":
                member_errors.append(
                    (plan, self._member_error(addr, response)))
                return
            _discard(sock)
            raise RpcProtocolError(
                f"unknown reply tag {tag!r} from worker at {addr}")

        def run_round(batch: List[Tuple[str, _TaskPlan, Tuple]]) -> None:
            send_error: List[BaseException] = []

            def pump() -> None:
                try:
                    for rid, (_kind, _plan, payload) in enumerate(batch):
                        send_one(rid, payload)
                except BaseException as exc:  # noqa: BLE001
                    send_error.append(exc)
                    _discard(sock)  # unblocks the reply reader

            writer = threading.Thread(
                target=pump, name=f"rpc-writer-{addr}", daemon=True)
            writer.start()
            try:
                for rid, (kind, plan, _payload) in enumerate(batch):
                    recv_one(rid, kind, plan)
            finally:
                writer.join()
            if send_error and not isinstance(
                    send_error[0], RpcConnectionError):
                raise send_error[0]

        run_round(requests)
        retried = set()
        while nopins:
            # a run_pinned missed (worker restarted or evicted the
            # pin) without running the task: re-pin from caller state
            # on the same, still-healthy connection and resend
            missed, nopins = nopins, []
            batch: List[Tuple[str, _TaskPlan, Tuple]] = []
            for plan in missed:
                if plan.index in retried:
                    _discard(sock)
                    raise RpcProtocolError(
                        f"worker at {addr} dropped a freshly shipped "
                        f"pin for member {plan.index}")
                retried.add(plan.index)
                sess = plan.session
                sess.invalidate()
                batch.append(("pin", plan, (
                    "pin", sess.key, sess.generation, plan.store)))
                batch.append(("runp", plan, (
                    "run_pinned", sess.key, sess.generation,
                    plan.stripped)))
            run_round(batch)
        _give_back(addr, sock)
        return (items, member_errors,
                counters["sent"], counters["received"])


# ---------------------------------------------------------------------------
# Local worker management (examples, benchmarks, CI)


class LocalWorker:
    """Handle on a worker daemon subprocess on this machine."""

    def __init__(self, process: subprocess.Popen, address: str) -> None:
        self.process = process
        self.address = address

    def kill(self) -> None:
        """SIGKILL the worker (fault injection: no orderly goodbye)."""
        self.process.kill()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            # SIGKILL cannot be refused; an unreaped zombie here means
            # the host is in deep trouble — don't hang teardown on it
            pass
        self._close_pipes()

    def stop(self) -> None:
        """Terminate the worker and reap it (idempotent).  A worker
        that ignores SIGTERM past the grace window is escalated to
        :meth:`kill` so a wedged daemon cannot hang test teardown."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            try:
                self.process.stdout.close()
            except OSError:  # pragma: no cover
                pass


def spawn_local_worker(bind: str = "127.0.0.1:0", *,
                       timeout: float = 30.0,
                       secret: Optional[str] = None) -> LocalWorker:
    """Start ``python -m repro.parallel.remote serve`` as a subprocess
    and wait for its announce line; returns the :class:`LocalWorker`
    with the actual ``host:port`` (port 0 picks a free one).

    ``secret`` exports ``REPRO_FLEET_SECRET`` into the worker's
    environment (the daemon reads it per frame through the policy
    chain) and signs the startup ping with it; None inherits whatever
    this process's environment already carries.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if secret is not None:
        env[_policy.FLEET_SECRET_ENV_VAR] = secret
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel.remote", "serve",
         "--bind", bind],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True)
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("SRPC listening on "):
            address = line.strip().rpartition(" ")[2]
            worker = LocalWorker(process, address)
            # the announce proves the socket is bound, not that the
            # daemon answers: confirm with a ping so a wedged child
            # is reaped here instead of orphaned for the caller
            try:
                ping(address,
                     timeout=max(1.0, deadline - time.monotonic()),
                     secret=secret if secret is not None else _AMBIENT)
            except RpcConnectionError as exc:
                worker.kill()
                raise RpcConnectionError(
                    f"local worker at {address} announced but never "
                    f"answered the startup ping: {exc}") from exc
            return worker
        if process.poll() is not None:
            break
    process.kill()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover
        pass
    if process.stdout is not None:
        process.stdout.close()
    raise RpcConnectionError(
        f"local worker failed to start (last output: {line!r})")


# ---------------------------------------------------------------------------
# CLI


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.remote",
        description="SERO fleet RPC worker daemon")
    sub = parser.add_subparsers(dest="command", required=True)
    serve_p = sub.add_parser("serve", help="host fleet member passes")
    serve_p.add_argument("--bind", default="127.0.0.1:0",
                         help="host:port to listen on (port 0 = free)")
    ping_p = sub.add_parser("ping", help="wait for a worker to answer")
    ping_p.add_argument("address", help="worker host:port")
    ping_p.add_argument("--timeout", type=float, default=15.0)
    args = parser.parse_args(argv)
    if args.command == "serve":
        serve(args.bind)
        return 0
    pid = ping(args.address, timeout=args.timeout)
    print(f"worker at {args.address} alive (pid {pid})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
