"""Execution policy: one lazy resolution order for every engine switch.

Before ``repro.api`` existed, engine selection was smeared across the
package: an *import-time* read of ``REPRO_SPAN_ENGINE`` pinned
``crypto.crc``/``crypto.manchester`` for the life of the process,
``DeviceConfig.span_engine`` captured another copy, and individual
calls took ``vectorized=``/``batched=`` flags.  This module replaces
all of that with a single resolution order, evaluated **lazily at each
decision point**:

1. **explicit argument** — a ``vectorized=``/``span_engine=`` flag (or
   an engine name) passed by the caller always wins;
2. **context override** — the innermost active
   ``with repro.engine("scalar"):`` block;
3. **installed policy** — the :class:`ExecutionPolicy` set with
   :func:`set_policy`;
4. **environment** — ``REPRO_SPAN_ENGINE``, read at resolution time
   (not import time), so exporting it *after* ``import repro`` works;
5. **default** — the ``vectorized`` engine.

Engines are named entries in a registry so future backends (sharded,
async, remote fleets) can register themselves and be selected through
the same chain; the built-ins are ``"vectorized"`` (the PR 1-2
span/batched fast paths) and ``"scalar"`` (the paper's literal per-dot
reference protocol).

The SHA-256 backend (``hashlib`` vs the from-scratch pure-Python
implementation) resolves through the same chain via
:attr:`ExecutionPolicy.sha256_backend` /
``repro.engine(sha256="pure")`` / ``REPRO_SHA256_BACKEND``.

The *fleet executor* — how :class:`~repro.workloads.fleet.FleetScheduler`
and :class:`~repro.api.fleet.FleetStore` dispatch per-member passes
(``serial`` / ``thread`` / ``process`` / ``rpc``, see
:mod:`repro.parallel`) — resolves through the chain too, via
:attr:`ExecutionPolicy.executor` / ``repro.engine(executor="thread")``
/ ``REPRO_FLEET_EXECUTOR``, with a worker-count bound alongside it
(:attr:`ExecutionPolicy.max_workers` / ``REPRO_FLEET_WORKERS``) and,
for the remote executor, the worker host set
(:attr:`ExecutionPolicy.fleet_hosts` /
``repro.engine(fleet_hosts=...)`` / ``REPRO_FLEET_HOSTS``).  All are
read lazily at each dispatch.

This module deliberately imports nothing from the rest of the package
at import time (it sits below every other layer in the import graph);
executor-name validation imports :mod:`repro.parallel` lazily, which
itself depends only on this module.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Union

#: Environment variable selecting the default engine (lazily read).
ENGINE_ENV_VAR = "REPRO_SPAN_ENGINE"

#: Environment variable selecting the default SHA-256 backend.
SHA256_ENV_VAR = "REPRO_SHA256_BACKEND"

#: Environment variable selecting the default fleet executor (lazy).
EXECUTOR_ENV_VAR = "REPRO_FLEET_EXECUTOR"

#: Environment variable bounding fleet executor workers (lazy).
FLEET_WORKERS_ENV_VAR = "REPRO_FLEET_WORKERS"

#: Environment variable naming remote fleet worker hosts for the
#: ``rpc`` executor (comma-separated ``host:port`` items, lazy).
FLEET_HOSTS_ENV_VAR = "REPRO_FLEET_HOSTS"

#: Environment variable setting the ``rpc`` executor's per-request
#: socket deadline in seconds (lazy; ``0`` or negative disables).
FLEET_TIMEOUT_ENV_VAR = "REPRO_FLEET_TIMEOUT"

#: Environment variable setting the ``rpc`` executor's failover
#: re-dispatch budget (waves of re-placement on surviving hosts, lazy).
FLEET_RETRIES_ENV_VAR = "REPRO_FLEET_RETRIES"

#: Environment variable selecting the ``rpc`` executor's exhausted-
#: member handling: ``raise`` (abort the pass) or ``degrade``
#: (return typed ``MemberFailure`` records in a partial pass, lazy).
FLEET_ON_FAILURE_ENV_VAR = "REPRO_FLEET_ON_FAILURE"

#: Recognised ``fleet_on_failure`` modes.
FLEET_ON_FAILURE_MODES = ("raise", "degrade")

#: Environment variable holding the fleet's shared HMAC secret: when
#: set, every SRPC frame (client and worker side) is signed and
#: unsigned frames are rejected (lazy; empty disables).
FLEET_SECRET_ENV_VAR = "REPRO_FLEET_SECRET"

#: Environment variable naming the HTTP gateway's bind address
#: (``host:port``, lazy).
GATEWAY_BIND_ENV_VAR = "REPRO_GATEWAY_BIND"

#: Environment variable holding the gateway's inline token spec
#: (``token=grant,grant;token=...`` — see :mod:`repro.gateway.auth`).
GATEWAY_TOKENS_ENV_VAR = "REPRO_GATEWAY_TOKENS"

#: Environment variable naming the gateway's token file (one
#: ``token=grant,...`` entry per line, ``#`` comments).
GATEWAY_TOKEN_FILE_ENV_VAR = "REPRO_GATEWAY_TOKEN_FILE"

#: Gateway bind address when no layer names one: loopback only — an
#: operator must *choose* to expose the service on a real interface.
DEFAULT_GATEWAY_BIND = "127.0.0.1:8473"

#: Environment variable setting the evidence-search highlighter's
#: fragment size in characters (lazy; see :mod:`repro.search`).
SEARCH_FRAGMENT_SIZE_ENV_VAR = "REPRO_SEARCH_FRAGMENT_SIZE"

#: Environment variable setting how many highlighted fragments a
#: search hit carries (lazy; ``0`` means the whole text, highlighted).
SEARCH_FRAGMENT_COUNT_ENV_VAR = "REPRO_SEARCH_FRAGMENT_COUNT"

#: Environment variable bounding how many hits one search returns
#: (lazy; facet counts always cover the full match set).
SEARCH_MAX_HITS_ENV_VAR = "REPRO_SEARCH_MAX_HITS"

#: Highlighter fragment size when no layer sets one.
DEFAULT_SEARCH_FRAGMENT_SIZE = 80

#: Highlighted fragments per hit when no layer sets a count.
DEFAULT_SEARCH_FRAGMENT_COUNT = 3

#: Hits per search when no layer sets a bound.
DEFAULT_SEARCH_MAX_HITS = 50

#: Executor used when no layer pins one: the reference dispatch.
DEFAULT_EXECUTOR = "serial"

_FALSEY = ("0", "false", "no", "off", "scalar")

#: Recognised SHA-256 backends (see :mod:`repro.crypto.sha256`).
SHA256_BACKENDS = ("hashlib", "pure")


# ---------------------------------------------------------------------------
# Engine registry


@dataclass(frozen=True)
class EngineSpec:
    """One registered execution engine.

    Attributes:
        name: registry key, as accepted by :func:`repro.engine` and
            :attr:`ExecutionPolicy.engine`.
        vectorized: whether the span/batched numpy fast paths run.
            Every current consumer reduces an engine to this flag;
            richer backends (sharding, async dispatch) can carry more
            behaviour on subclasses while keeping the flag meaningful
            for the layers below them.
        description: one-line human description.
    """

    name: str
    vectorized: bool
    description: str = ""


_ENGINES: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Register an engine so policies and contexts can select it by name.

    Raises ``ValueError`` for a duplicate name unless ``replace``.
    """
    if not spec.name or not spec.name.isidentifier():
        raise ValueError(f"engine name must be an identifier: {spec.name!r}")
    if spec.name in _ENGINES and not replace:
        raise ValueError(f"engine {spec.name!r} already registered")
    _ENGINES[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove a registered engine (built-ins are protected)."""
    if name in ("vectorized", "scalar"):
        raise ValueError(f"cannot unregister built-in engine {name!r}")
    _ENGINES.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines, registration order."""
    return tuple(_ENGINES)


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: {', '.join(_ENGINES)}"
        ) from None


VECTORIZED_ENGINE = register_engine(EngineSpec(
    "vectorized", True,
    "numpy span/batched fast paths (protocol-identical, default)"))
SCALAR_ENGINE = register_engine(EngineSpec(
    "scalar", False,
    "the paper's literal per-dot/per-byte reference protocol"))


# ---------------------------------------------------------------------------
# Policy objects


@dataclass(frozen=True)
class ExecutionPolicy:
    """A bundle of engine choices, installable or usable as a context.

    ``None`` fields mean "defer to the next layer of the resolution
    order" — an installed ``ExecutionPolicy()`` with all defaults is
    indistinguishable from no policy at all.

    Attributes:
        engine: registered engine name (``"vectorized"``/``"scalar"``
            or a custom registration).
        sha256_backend: ``"hashlib"`` or ``"pure"``.
        executor: registered fleet executor name (``"serial"`` /
            ``"thread"`` / ``"process"`` / ``"rpc"`` or a custom
            registration in :mod:`repro.parallel`).
        max_workers: worker bound for pool executors (None = one per
            CPU core, capped at the member count).
        fleet_hosts: remote worker addresses for the ``rpc`` executor
            (``host:port`` strings, or one comma-separated string);
            stored canonicalised (validated, de-duplicated, sorted) so
            two policies naming the same hosts in different orders are
            the same policy.
        fleet_timeout: per-request socket deadline in seconds for the
            ``rpc`` executor (None = no deadline; a hung worker blocks
            until the fault is external).
        fleet_retries: failover re-dispatch budget — how many waves of
            re-placement on surviving hosts a pass may attempt for
            members whose host died (None = defer; the chain's default
            is 0, fail fast).
        fleet_on_failure: ``"raise"`` or ``"degrade"`` — what an rpc
            pass does with members that exhausted their retries.
            Plain values by design: resolving any of the three never
            loads the wire-protocol module.
        fleet_secret: shared HMAC secret for the ``rpc`` executor's
            wire frames.  When any layer resolves a secret, every
            frame both directions is HMAC-SHA256-signed and unsigned
            frames are rejected (see :mod:`repro.parallel.remote`).
            A plain string by design, like the three above.
        gateway_bind: ``host:port`` the HTTP gateway binds
            (:mod:`repro.gateway`); stored canonicalised.
        gateway_token_file: path to the gateway's bearer-token file
            (one ``token=grant,...`` entry per line).
        search_fragment_size: evidence-search highlighter fragment
            size in characters (:mod:`repro.search`).
        search_fragment_count: highlighted fragments per search hit
            (``0`` = the whole text, highlighted).
        search_max_hits: hits one search returns (facet counts always
            cover the full match set).
    """

    engine: Optional[str] = None
    sha256_backend: Optional[str] = None
    executor: Optional[str] = None
    max_workers: Optional[int] = None
    fleet_hosts: Optional[Tuple[str, ...]] = None
    fleet_timeout: Optional[float] = None
    fleet_retries: Optional[int] = None
    fleet_on_failure: Optional[str] = None
    # repr=False: the secret must never surface in reprs, logs, or
    # describe_policy() output — only the fleet_secret_set bool does
    fleet_secret: Optional[str] = field(default=None, repr=False)
    gateway_bind: Optional[str] = None
    gateway_token_file: Optional[str] = None
    search_fragment_size: Optional[int] = None
    search_fragment_count: Optional[int] = None
    search_max_hits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            get_engine(self.engine)  # validates
        if self.sha256_backend is not None and \
                self.sha256_backend not in SHA256_BACKENDS:
            raise ValueError(
                f"unknown sha256 backend {self.sha256_backend!r}; "
                f"expected one of {SHA256_BACKENDS}")
        if self.executor is not None:
            from .. import parallel  # lazy: keeps this module at the bottom

            parallel.get_executor_spec(self.executor)  # validates
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.fleet_timeout is not None:
            if isinstance(self.fleet_timeout, bool) or \
                    not isinstance(self.fleet_timeout, (int, float)):
                raise TypeError("fleet_timeout must be a number or None")
            if self.fleet_timeout <= 0:
                raise ValueError("fleet_timeout must be > 0 seconds")
            object.__setattr__(self, "fleet_timeout",
                               float(self.fleet_timeout))
        if self.fleet_retries is not None:
            if isinstance(self.fleet_retries, bool) or \
                    not isinstance(self.fleet_retries, int):
                raise TypeError("fleet_retries must be an int or None")
            if self.fleet_retries < 0:
                raise ValueError("fleet_retries must be >= 0")
        if self.fleet_on_failure is not None and \
                self.fleet_on_failure not in FLEET_ON_FAILURE_MODES:
            raise ValueError(
                f"unknown fleet_on_failure mode "
                f"{self.fleet_on_failure!r}; expected one of "
                f"{FLEET_ON_FAILURE_MODES}")
        if self.fleet_secret is not None:
            if not isinstance(self.fleet_secret, str):
                raise TypeError("fleet_secret must be a str or None")
            if not self.fleet_secret:
                raise ValueError(
                    "fleet_secret must be non-empty (omit it to run "
                    "unsigned)")
        if self.gateway_token_file is not None and \
                not str(self.gateway_token_file).strip():
            raise ValueError("gateway_token_file must be a path")
        for name, minimum in (("search_fragment_size", 1),
                              ("search_fragment_count", 0),
                              ("search_max_hits", 1)):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int or None")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
        if self.gateway_bind is not None:
            from ..parallel import remote  # lazy, as above

            host, port = remote.parse_host(self.gateway_bind)
            object.__setattr__(self, "gateway_bind", f"{host}:{port}")
        if self.fleet_hosts is not None:
            from ..parallel import remote  # lazy, as above

            object.__setattr__(self, "fleet_hosts",
                               remote.parse_hosts(self.fleet_hosts))

    @contextmanager
    def use(self) -> Iterator["ExecutionPolicy"]:
        """Apply this policy as a (nestable) context override."""
        token = _OVERRIDES.set(_OVERRIDES.get() + (self,))
        try:
            yield self
        finally:
            _OVERRIDES.reset(token)


#: Installed process-wide policy (layer 3 of the resolution order).
_POLICY: Optional[ExecutionPolicy] = None

#: Stack of active context overrides (layer 2); innermost last.
_OVERRIDES: ContextVar[Tuple[ExecutionPolicy, ...]] = ContextVar(
    "repro_policy_overrides", default=())


def set_policy(policy: Optional[ExecutionPolicy]) -> None:
    """Install (or with ``None`` clear) the process-wide policy."""
    global _POLICY
    if policy is not None and not isinstance(policy, ExecutionPolicy):
        raise TypeError("set_policy expects an ExecutionPolicy or None")
    _POLICY = policy


def get_policy() -> Optional[ExecutionPolicy]:
    """The installed process-wide policy (None when not set)."""
    return _POLICY


@contextmanager
def engine(name: Optional[str] = None, *,
           sha256: Optional[str] = None,
           executor: Optional[str] = None,
           max_workers: Optional[int] = None,
           fleet_hosts: Optional[Tuple[str, ...]] = None,
           fleet_timeout: Optional[float] = None,
           fleet_retries: Optional[int] = None,
           fleet_on_failure: Optional[str] = None,
           fleet_secret: Optional[str] = None,
           gateway_bind: Optional[str] = None,
           gateway_token_file: Optional[str] = None,
           search_fragment_size: Optional[int] = None,
           search_fragment_count: Optional[int] = None,
           search_max_hits: Optional[int] = None
           ) -> Iterator[ExecutionPolicy]:
    """Scoped engine override: ``with repro.engine("scalar"): ...``.

    Nested contexts stack; the innermost one that pins a given field
    wins, so ``with engine("scalar"), engine(sha256="pure"):`` runs the
    scalar engine *and* the pure hash.  Fleet dispatch scopes the same
    way: ``with repro.engine(executor="thread", max_workers=4): ...``,
    remote dispatch too: ``with repro.engine(executor="rpc",
    fleet_hosts=("db1:7401", "db2:7401")): ...``, and so does fault
    handling: ``with repro.engine(fleet_timeout=5.0, fleet_retries=2,
    fleet_on_failure="degrade"): ...``.  Thread- and async-safe
    (backed by a :class:`contextvars.ContextVar`).
    """
    with ExecutionPolicy(engine=name, sha256_backend=sha256,
                         executor=executor,
                         max_workers=max_workers,
                         fleet_hosts=fleet_hosts,
                         fleet_timeout=fleet_timeout,
                         fleet_retries=fleet_retries,
                         fleet_on_failure=fleet_on_failure,
                         fleet_secret=fleet_secret,
                         gateway_bind=gateway_bind,
                         gateway_token_file=gateway_token_file,
                         search_fragment_size=search_fragment_size,
                         search_fragment_count=search_fragment_count,
                         search_max_hits=search_max_hits
                         ).use() as pol:
        yield pol


# ---------------------------------------------------------------------------
# Resolution


def _engine_from_env() -> Tuple[str, str]:
    """(engine name, source) from the environment / default layers."""
    value = os.environ.get(ENGINE_ENV_VAR)
    if value is None:
        return "vectorized", "default"
    token = value.strip().lower()
    if token in _ENGINES:
        return token, "env"
    return ("scalar" if token in _FALSEY else "vectorized"), "env"


def _resolve_engine_name(explicit: Union[None, bool, str]) -> Tuple[str, str]:
    """(engine name, source) through the four-layer chain."""
    if explicit is not None:
        if isinstance(explicit, bool):
            return ("vectorized" if explicit else "scalar"), "explicit"
        get_engine(explicit)  # validates
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.engine is not None:
            return frame.engine, "context"
    if _POLICY is not None and _POLICY.engine is not None:
        return _POLICY.engine, "policy"
    return _engine_from_env()


def resolve_engine(explicit: Union[None, bool, str] = None) -> EngineSpec:
    """Resolve the active engine through the documented order.

    ``explicit`` may be a registered engine name, a bare bool (the
    legacy ``vectorized=``/``span_engine=`` flags map ``True`` to
    ``"vectorized"`` and ``False`` to ``"scalar"``), or None to defer
    to context / policy / environment / default.
    """
    return get_engine(_resolve_engine_name(explicit)[0])


def resolve_vectorized(explicit: Union[None, bool, str] = None) -> bool:
    """Whether the active engine runs the vectorized fast paths.

    Evaluated lazily at each decision point.
    """
    if explicit is None:
        # fast path: no explicit pin, walk the chain inline
        # (get_engine, not a bare dict lookup, so a policy/context
        # naming a since-unregistered engine fails with the same
        # descriptive ValueError as the resolve_engine path)
        overrides = _OVERRIDES.get()
        if overrides:
            for frame in reversed(overrides):
                if frame.engine is not None:
                    return get_engine(frame.engine).vectorized
        if _POLICY is not None and _POLICY.engine is not None:
            return get_engine(_POLICY.engine).vectorized
        value = os.environ.get(ENGINE_ENV_VAR)
        if value is None:
            return True
        token = value.strip().lower()
        if token in _ENGINES:
            return _ENGINES[token].vectorized
        return token not in _FALSEY
    return resolve_engine(explicit).vectorized


def resolve_sha256_backend(explicit: Optional[str] = None) -> str:
    """Resolve the SHA-256 backend name through the same chain."""
    if explicit is not None:
        if explicit not in SHA256_BACKENDS:
            raise ValueError(f"unknown sha256 backend: {explicit!r}")
        return explicit
    for frame in reversed(_OVERRIDES.get()):
        if frame.sha256_backend is not None:
            return frame.sha256_backend
    if _POLICY is not None and _POLICY.sha256_backend is not None:
        return _POLICY.sha256_backend
    value = os.environ.get(SHA256_ENV_VAR)
    if value is not None and value.strip().lower() in SHA256_BACKENDS:
        return value.strip().lower()
    return "hashlib"


def _executor_from_env() -> Tuple[str, str]:
    """(executor name, source) from the environment / default layers.

    An env value naming an unregistered executor is ignored (like the
    engine variable's unknown-token handling, a stale export must not
    crash a fleet node) and the default dispatch applies.
    """
    value = os.environ.get(EXECUTOR_ENV_VAR)
    if value is not None:
        token = value.strip().lower()
        from .. import parallel  # lazy; registers the built-ins

        if token in parallel.available_executors():
            return token, "env"
    return DEFAULT_EXECUTOR, "default"


def resolve_executor_name(explicit: Optional[str] = None) -> Tuple[str, str]:
    """(executor name, deciding layer) through the four-layer chain.

    ``explicit`` must be a registered executor name or None; the env
    variable is read *now* (exporting ``REPRO_FLEET_EXECUTOR`` after
    ``import repro`` — or after building the scheduler — works).
    """
    if explicit is not None:
        from .. import parallel

        parallel.get_executor_spec(explicit)  # validates
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.executor is not None:
            return frame.executor, "context"
    if _POLICY is not None and _POLICY.executor is not None:
        return _POLICY.executor, "policy"
    return _executor_from_env()


def resolve_max_workers(
        explicit: Optional[int] = None) -> Tuple[Optional[int], str]:
    """(worker bound, deciding layer); None means one per CPU core."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError("max_workers must be >= 1")
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.max_workers is not None:
            return frame.max_workers, "context"
    if _POLICY is not None and _POLICY.max_workers is not None:
        return _POLICY.max_workers, "policy"
    value = os.environ.get(FLEET_WORKERS_ENV_VAR)
    if value is not None:
        try:
            workers = int(value.strip())
        except ValueError:
            workers = 0
        if workers >= 1:
            return workers, "env"
    return None, "default"


def resolve_fleet_hosts(
        explicit: Union[None, str, Tuple[str, ...]] = None
) -> Tuple[Optional[Tuple[str, ...]], str]:
    """(canonical host tuple or None, deciding layer) for the ``rpc``
    executor's worker set.

    ``explicit`` may be a host sequence or one comma-separated string;
    None walks context > installed policy > ``REPRO_FLEET_HOSTS`` (read
    *now*, so exporting it after the scheduler exists works).  None
    with source ``"default"`` means no layer names hosts — the rpc
    executor turns that into a descriptive error at dispatch.
    """
    if explicit is not None:
        from ..parallel import remote  # lazy: only parsing needs it

        return remote.parse_hosts(explicit), "explicit"
    # context/policy values were canonicalised by ExecutionPolicy
    # validation, so these layers resolve without ever loading the
    # wire-protocol module (describe_policy() must stay cheap)
    for frame in reversed(_OVERRIDES.get()):
        if frame.fleet_hosts is not None:
            return frame.fleet_hosts, "context"
    if _POLICY is not None and _POLICY.fleet_hosts is not None:
        return _POLICY.fleet_hosts, "policy"
    value = os.environ.get(FLEET_HOSTS_ENV_VAR)
    if value is not None and value.strip():
        from ..parallel import remote  # lazy, as above

        return remote.parse_hosts(value), "env"
    return None, "default"


def resolve_fleet_timeout(
        explicit: Optional[float] = None) -> Tuple[Optional[float], str]:
    """(per-request deadline in seconds or None, deciding layer) for
    the ``rpc`` executor.

    None means no deadline — a hung worker blocks until an external
    fault (peer death, connection reset) surfaces.  The env value is
    read *now*; ``REPRO_FLEET_TIMEOUT=0`` (or negative) is an explicit
    disable, an unparsable value is ignored.
    """
    if explicit is not None:
        if explicit <= 0:
            raise ValueError("fleet timeout must be > 0 seconds")
        return float(explicit), "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.fleet_timeout is not None:
            return frame.fleet_timeout, "context"
    if _POLICY is not None and _POLICY.fleet_timeout is not None:
        return _POLICY.fleet_timeout, "policy"
    value = os.environ.get(FLEET_TIMEOUT_ENV_VAR)
    if value is not None and value.strip():
        try:
            seconds = float(value.strip())
        except ValueError:
            return None, "default"
        return (seconds if seconds > 0 else None), "env"
    return None, "default"


def resolve_fleet_retries(
        explicit: Optional[int] = None) -> Tuple[int, str]:
    """(failover re-dispatch budget, deciding layer) for the ``rpc``
    executor.

    ``0`` (the default) keeps the fail-fast contract: the first host
    loss aborts the pass.  A negative or unparsable env value is
    ignored.
    """
    if explicit is not None:
        if isinstance(explicit, bool) or not isinstance(explicit, int):
            raise TypeError("fleet retries must be an int or None")
        if explicit < 0:
            raise ValueError("fleet retries must be >= 0")
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.fleet_retries is not None:
            return frame.fleet_retries, "context"
    if _POLICY is not None and _POLICY.fleet_retries is not None:
        return _POLICY.fleet_retries, "policy"
    value = os.environ.get(FLEET_RETRIES_ENV_VAR)
    if value is not None and value.strip():
        try:
            waves = int(value.strip())
        except ValueError:
            waves = -1
        if waves >= 0:
            return waves, "env"
    return 0, "default"


def resolve_fleet_on_failure(
        explicit: Optional[str] = None) -> Tuple[str, str]:
    """(exhausted-member mode, deciding layer) for the ``rpc``
    executor: ``"raise"`` (default, abort the pass) or ``"degrade"``
    (partial pass with typed ``MemberFailure`` records).  An env value
    outside the recognised modes is ignored.
    """
    if explicit is not None:
        if explicit not in FLEET_ON_FAILURE_MODES:
            raise ValueError(
                f"unknown fleet on_failure mode {explicit!r}; "
                f"expected one of {FLEET_ON_FAILURE_MODES}")
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.fleet_on_failure is not None:
            return frame.fleet_on_failure, "context"
    if _POLICY is not None and _POLICY.fleet_on_failure is not None:
        return _POLICY.fleet_on_failure, "policy"
    value = os.environ.get(FLEET_ON_FAILURE_ENV_VAR)
    if value is not None:
        token = value.strip().lower()
        if token in FLEET_ON_FAILURE_MODES:
            return token, "env"
    return "raise", "default"


def resolve_fleet_secret(
        explicit: Optional[str] = None) -> Tuple[Optional[str], str]:
    """(shared frame-signing secret or None, deciding layer) for the
    ``rpc`` executor's wire protocol.

    None means unsigned frames (the PR 5 trusted-network transport);
    any resolved secret makes both sides sign every frame and reject
    unsigned ones.  ``REPRO_FLEET_SECRET`` is read *now*; a
    whitespace-only value is an explicit disable.
    """
    if explicit is not None:
        if not isinstance(explicit, str) or not explicit:
            raise ValueError(
                "fleet secret must be a non-empty string (omit it to "
                "run unsigned)")
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.fleet_secret is not None:
            return frame.fleet_secret, "context"
    if _POLICY is not None and _POLICY.fleet_secret is not None:
        return _POLICY.fleet_secret, "policy"
    value = os.environ.get(FLEET_SECRET_ENV_VAR)
    if value is not None and value.strip():
        return value.strip(), "env"
    return None, "default"


def resolve_gateway_bind(
        explicit: Optional[str] = None) -> Tuple[str, str]:
    """(canonical ``host:port`` bind address, deciding layer) for the
    HTTP gateway (:mod:`repro.gateway`).  Defaults to loopback
    (:data:`DEFAULT_GATEWAY_BIND`) — exposing the service on a real
    interface is always a deliberate choice."""
    if explicit is not None:
        from ..parallel.remote import parse_host  # lazy: only parsing

        host, port = parse_host(explicit)
        return f"{host}:{port}", "explicit"
    # context/policy values were canonicalised by ExecutionPolicy
    # validation; the default is literal — so describe_policy() keeps
    # its no-wire-protocol-import guarantee on those layers
    for frame in reversed(_OVERRIDES.get()):
        if frame.gateway_bind is not None:
            return frame.gateway_bind, "context"
    if _POLICY is not None and _POLICY.gateway_bind is not None:
        return _POLICY.gateway_bind, "policy"
    value = os.environ.get(GATEWAY_BIND_ENV_VAR)
    if value is not None and value.strip():
        from ..parallel.remote import parse_host  # lazy, as above

        host, port = parse_host(value)
        return f"{host}:{port}", "env"
    return DEFAULT_GATEWAY_BIND, "default"


def resolve_gateway_token_file(
        explicit: Optional[str] = None) -> Tuple[Optional[str], str]:
    """(token file path or None, deciding layer) for the HTTP
    gateway's bearer tokens.  The inline spec variable
    (:data:`GATEWAY_TOKENS_ENV_VAR`) is separate and takes precedence
    in :meth:`repro.gateway.GatewaySettings.resolve` — secret material
    itself never lives in a policy object, only a path to it may."""
    if explicit is not None:
        if not str(explicit).strip():
            raise ValueError("gateway token file must be a path")
        return str(explicit), "explicit"
    for frame in reversed(_OVERRIDES.get()):
        if frame.gateway_token_file is not None:
            return frame.gateway_token_file, "context"
    if _POLICY is not None and _POLICY.gateway_token_file is not None:
        return _POLICY.gateway_token_file, "policy"
    value = os.environ.get(GATEWAY_TOKEN_FILE_ENV_VAR)
    if value is not None and value.strip():
        return value.strip(), "env"
    return None, "default"


def _resolve_search_int(explicit: Optional[int], *, attr: str,
                        env_var: str, default: int,
                        minimum: int) -> Tuple[int, str]:
    """Shared five-layer walk for the search layer's integer knobs
    (fragment size / fragment count / max hits).  A below-minimum or
    unparsable env value is ignored, like the other fleet knobs."""
    if explicit is not None:
        if isinstance(explicit, bool) or not isinstance(explicit, int):
            raise TypeError(f"{attr} must be an int or None")
        if explicit < minimum:
            raise ValueError(f"{attr} must be >= {minimum}")
        return explicit, "explicit"
    for frame in reversed(_OVERRIDES.get()):
        value = getattr(frame, attr)
        if value is not None:
            return value, "context"
    if _POLICY is not None and getattr(_POLICY, attr) is not None:
        return getattr(_POLICY, attr), "policy"
    raw = os.environ.get(env_var)
    if raw is not None and raw.strip():
        try:
            value = int(raw.strip())
        except ValueError:
            value = minimum - 1
        if value >= minimum:
            return value, "env"
    return default, "default"


def resolve_search_fragment_size(
        explicit: Optional[int] = None) -> Tuple[int, str]:
    """(highlighter fragment size in characters, deciding layer) for
    the evidence-search layer (:mod:`repro.search`)."""
    return _resolve_search_int(
        explicit, attr="search_fragment_size",
        env_var=SEARCH_FRAGMENT_SIZE_ENV_VAR,
        default=DEFAULT_SEARCH_FRAGMENT_SIZE, minimum=1)


def resolve_search_fragment_count(
        explicit: Optional[int] = None) -> Tuple[int, str]:
    """(highlighted fragments per hit, deciding layer); ``0`` means
    the whole text, highlighted (the openaleph convention)."""
    return _resolve_search_int(
        explicit, attr="search_fragment_count",
        env_var=SEARCH_FRAGMENT_COUNT_ENV_VAR,
        default=DEFAULT_SEARCH_FRAGMENT_COUNT, minimum=0)


def resolve_search_max_hits(
        explicit: Optional[int] = None) -> Tuple[int, str]:
    """(hits one search returns, deciding layer).  Facet aggregations
    always cover the full match set regardless of this bound."""
    return _resolve_search_int(
        explicit, attr="search_max_hits",
        env_var=SEARCH_MAX_HITS_ENV_VAR,
        default=DEFAULT_SEARCH_MAX_HITS, minimum=1)


def describe_policy() -> Dict[str, object]:
    """Inspectable snapshot of the resolution: what would run now, and
    which layer decided it.  The answer an operator needs when a fleet
    node is mysteriously slow (e.g. a pinned pure SHA-256 backend)."""
    name, source = _resolve_engine_name(None)
    sha = resolve_sha256_backend()
    sha_source = "default"
    for frame in reversed(_OVERRIDES.get()):
        if frame.sha256_backend is not None:
            sha_source = "context"
            break
    else:
        if _POLICY is not None and _POLICY.sha256_backend is not None:
            sha_source = "policy"
        elif os.environ.get(SHA256_ENV_VAR, "").strip().lower() in SHA256_BACKENDS:
            sha_source = "env"
    executor, executor_source = resolve_executor_name()
    max_workers, workers_source = resolve_max_workers()
    fleet_hosts, hosts_source = resolve_fleet_hosts()
    fleet_timeout, timeout_source = resolve_fleet_timeout()
    fleet_retries, retries_source = resolve_fleet_retries()
    fleet_on_failure, on_failure_source = resolve_fleet_on_failure()
    fleet_secret, secret_source = resolve_fleet_secret()
    gateway_bind, gateway_bind_source = resolve_gateway_bind()
    token_file, token_file_source = resolve_gateway_token_file()
    fragment_size, fragment_size_source = resolve_search_fragment_size()
    fragment_count, fragment_count_source = \
        resolve_search_fragment_count()
    max_hits, max_hits_source = resolve_search_max_hits()
    from .. import parallel  # lazy; registers the built-in executors

    return {
        "engine": name,
        "engine_source": source,
        "vectorized": _ENGINES[name].vectorized,
        "sha256_backend": sha,
        "sha256_source": sha_source,
        "executor": executor,
        "executor_source": executor_source,
        "max_workers": max_workers,
        "max_workers_source": workers_source,
        "fleet_hosts": fleet_hosts,
        "fleet_hosts_source": hosts_source,
        "fleet_timeout": fleet_timeout,
        "fleet_timeout_source": timeout_source,
        "fleet_retries": fleet_retries,
        "fleet_retries_source": retries_source,
        "fleet_on_failure": fleet_on_failure,
        "fleet_on_failure_source": on_failure_source,
        # the secret's *presence* is operational state; its value is
        # secret material and never appears in a diagnostics dump
        "fleet_secret_set": fleet_secret is not None,
        "fleet_secret_source": secret_source,
        "gateway_bind": gateway_bind,
        "gateway_bind_source": gateway_bind_source,
        "gateway_token_file": token_file,
        "gateway_token_file_source": token_file_source,
        "search_fragment_size": fragment_size,
        "search_fragment_size_source": fragment_size_source,
        "search_fragment_count": fragment_count,
        "search_fragment_count_source": fragment_count_source,
        "search_max_hits": max_hits,
        "search_max_hits_source": max_hits_source,
        "available_engines": available_engines(),
        "available_executors": parallel.available_executors(),
        "installed_policy": _POLICY,
        "active_overrides": len(_OVERRIDES.get()),
    }
