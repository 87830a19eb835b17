"""Execution policy: one knob table, one five-layer walk.

Every tunable of the package — fleet dispatch and its fault handling,
the gateway's address and token file, the search highlighter — is one
row of :data:`KNOBS`: policy field, environment variable, default,
one validator and one env parser.  :func:`resolve` is the only place
the resolution order is walked, **lazily at each decision point**:

1. **explicit argument** — a value passed by the caller always wins;
2. **context override** — the innermost active
   ``with repro.engine(...):`` block that pins the knob;
3. **installed policy** — the :class:`ExecutionPolicy` set with
   :func:`set_policy`;
4. **environment** — the row's variable, read at resolution time (not
   import time), so exporting it *after* ``import repro`` works.  A
   blank export counts as unset and an unparsable one is ignored — a
   stale variable must not crash a fleet node — except for the two
   address rows, where a bad address must stay loud;
5. **default** — the row's default.

Everything else derives from the table: :class:`ExecutionPolicy`
validates each field with its row's ``check``, :func:`engine` forwards
its keywords to it, :func:`describe_policy` loops over the rows, and
the public ``resolve_*`` / ``*_ENV_VAR`` / ``DEFAULT_*`` names are
one-line aliases onto it: adding a knob is adding a row (plus its
``ExecutionPolicy`` field).  Which implementation of the paper's
protocol runs is *not* a knob: the scalar reference is reachable only
through the explicit arguments of the functions that have a twin
(``DeviceConfig(span_engine=False)`` and friends).

The storage layers (``medium``, ``physics``, ``crypto``, ``device``,
``integrity``, ``fs``) never import this module.  At import time it
loads only the leaf :mod:`repro.errors`; address validation imports
:mod:`repro.parallel` lazily, which itself depends only on this
module.
"""

from __future__ import annotations

import math
import os
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from ..errors import ConfigurationError

#: Recognised ``fleet_on_failure`` modes.
FLEET_ON_FAILURE_MODES = ("raise", "degrade")

#: Fleet executors by name: one in-process, one across processes.
_EXECUTORS = ("serial", "rpc")

#: Environment variable holding the gateway's inline token spec (see
#: :mod:`repro.gateway.auth`).  Not a table row: secret material never
#: lives in a policy object, only a path to it may.
GATEWAY_TOKENS_ENV_VAR = "REPRO_GATEWAY_TOKENS"


# ---------------------------------------------------------------------------
# The knob table


#: A validator: the canonical value, or ``TypeError``/``ValueError``.
Check = Callable[[object], object]


@dataclass(frozen=True)
class Knob:
    """One row of :data:`KNOBS`: all the package knows about one knob.

    Attributes:
        name: the ``ExecutionPolicy`` field, ``engine()`` keyword and
            ``describe_policy()`` key.
        env_var: the layer-4 environment variable.
        default: the layer-5 value.
        check: validate and canonicalise a value given explicitly, to
            ``repro.engine(...)`` or to ``ExecutionPolicy(...)`` — the
            one validator every layer shares.
        parse_env: stripped, non-blank env text → the value ``check``
            then sees (``None`` = the export explicitly unsets the
            knob); ``ValueError`` from either marks the export garbage.
        doc: what the knob means.
        secret: the value is secret material — kept out of ``repr``,
            reported by ``describe_policy()`` only as ``<name>_set``.
        strict_env: a garbage export raises instead of being ignored.
    """

    name: str
    env_var: str
    default: object
    check: Check
    parse_env: Callable[[str], object] = str
    doc: str = ""
    secret: bool = False
    strict_env: bool = False


def _typed(label: str, types: Union[type, Tuple[type, ...]], requirement: str,
           ok: Check, canonical: Check = lambda value: value) -> Check:
    """A ``check``: ``TypeError`` unless the value is one of ``types``
    (a bool never counts as a number), ``ValueError`` unless
    ``ok(value)``; returns ``canonical(value)``.  The messages name
    the requirement, never the value (it may be secret material)."""
    def check(value: object) -> object:
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"{label} must be {requirement} or None, "
                            f"not a {type(value).__name__}")
        if not ok(value):
            raise ValueError(f"{label} must be {requirement}")
        return canonical(value)
    return check


def _int_at_least(label: str, minimum: int) -> Check:
    return _typed(label, int, f"an int >= {minimum}",
                  lambda value: value >= minimum)


def _one_of(label: str, choices: Tuple[str, ...]) -> Check:
    return _typed(label, str, f"one of {choices}", choices.__contains__)


def _parallel():
    """:mod:`repro.parallel`, imported at call time: it sits above this
    module (and loads the wire protocol only for ``parse_hosts``)."""
    from .. import parallel

    return parallel


#: The knob table, in ``ExecutionPolicy`` field order.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("executor", "REPRO_FLEET_EXECUTOR", "serial",
         _one_of("executor", _EXECUTORS), str.lower,
         doc="fleet dispatch: `serial` (in-process, the reference) or "
             "`rpc` (worker daemons across processes); a ready "
             "`FleetExecutor` instance goes to `FleetStore(executor=)`"),
    Knob("fleet_hosts", "REPRO_FLEET_HOSTS", None,
         lambda value: _parallel().parse_hosts(value),
         doc="`rpc` worker addresses (`host:port` strings, or one "
             "comma-separated string), stored validated and sorted so "
             "the same hosts in any order are the same policy; unset = "
             "the rpc executor raises a descriptive error at dispatch",
         strict_env=True),
    # nan/inf would reach sock.settimeout() and raise mid-dial, past
    # the failover loop (neither error is an RpcConnectionError)
    Knob("fleet_timeout", "REPRO_FLEET_TIMEOUT", None,
         _typed("fleet_timeout", (int, float),
                "a finite number of seconds > 0",
                lambda value: math.isfinite(value) and value > 0, float),
         lambda text: None if float(text) <= 0 else float(text),
         doc="`rpc` per-request socket deadline in seconds (unset = "
             "none: a hung worker blocks until the fault is external); "
             "the env var takes `0` or a negative as an explicit disable"),
    Knob("fleet_retries", "REPRO_FLEET_RETRIES", 0,
         _int_at_least("fleet_retries", 0), int,
         doc="`rpc` failover budget: waves of re-placement on surviving "
             "hosts for members whose host died (`0` = fail fast)"),
    Knob("fleet_on_failure", "REPRO_FLEET_ON_FAILURE", "raise",
         _one_of("fleet_on_failure", FLEET_ON_FAILURE_MODES), str.lower,
         doc="members that exhausted their retries `raise` (abort the "
             "pass) or `degrade` (a partial pass with typed "
             "`MemberFailure` records)"),
    Knob("fleet_secret", "REPRO_FLEET_SECRET", None,
         _typed("fleet_secret", str,
                "a non-empty str (omit it to run unsigned)", bool),
         doc="shared HMAC secret of the `rpc` wire: when any layer "
             "resolves one, every frame both directions is "
             "HMAC-SHA256-signed and unsigned frames are rejected",
         secret=True),
    Knob("gateway_bind", "REPRO_GATEWAY_BIND", "127.0.0.1:8473",
         lambda value: _parallel().parse_hosts([value])[0],
         doc="`host:port` the HTTP gateway binds; loopback by default — "
             "exposing the service is always a deliberate choice",
         strict_env=True),
    Knob("gateway_token_file", "REPRO_GATEWAY_TOKEN_FILE", None,
         _typed("gateway_token_file", (str, os.PathLike), "a non-blank path",
                lambda value: os.fspath(value).strip(), os.fspath),
         doc="path to the gateway's bearer-token file (one "
             "`token=grant,...` entry per line, `#` comments); an inline "
             "`REPRO_GATEWAY_TOKENS` spec takes precedence over it"),
    Knob("search_fragment_size", "REPRO_SEARCH_FRAGMENT_SIZE", 80,
         _int_at_least("search_fragment_size", 1), int,
         doc="evidence-search highlighter fragment size in characters"),
    Knob("search_fragment_count", "REPRO_SEARCH_FRAGMENT_COUNT", 3,
         _int_at_least("search_fragment_count", 0), int,
         doc="highlighted fragments per search hit (`0` = the whole "
             "text, highlighted)"),
    Knob("search_max_hits", "REPRO_SEARCH_MAX_HITS", 50,
         _int_at_least("search_max_hits", 1), int,
         doc="hits one search returns (facet counts always cover the "
             "full match set)"),
)}

# Public names for the rows' environment variables and defaults.
EXECUTOR_ENV_VAR = KNOBS["executor"].env_var
FLEET_HOSTS_ENV_VAR = KNOBS["fleet_hosts"].env_var
FLEET_TIMEOUT_ENV_VAR = KNOBS["fleet_timeout"].env_var
FLEET_RETRIES_ENV_VAR = KNOBS["fleet_retries"].env_var
FLEET_ON_FAILURE_ENV_VAR = KNOBS["fleet_on_failure"].env_var
FLEET_SECRET_ENV_VAR = KNOBS["fleet_secret"].env_var
GATEWAY_BIND_ENV_VAR = KNOBS["gateway_bind"].env_var
GATEWAY_TOKEN_FILE_ENV_VAR = KNOBS["gateway_token_file"].env_var
SEARCH_FRAGMENT_SIZE_ENV_VAR = KNOBS["search_fragment_size"].env_var
SEARCH_FRAGMENT_COUNT_ENV_VAR = KNOBS["search_fragment_count"].env_var
SEARCH_MAX_HITS_ENV_VAR = KNOBS["search_max_hits"].env_var
DEFAULT_EXECUTOR = KNOBS["executor"].default
DEFAULT_GATEWAY_BIND = KNOBS["gateway_bind"].default


# ---------------------------------------------------------------------------
# Policy objects


@dataclass(frozen=True)
class ExecutionPolicy:
    """A bundle of knob values, installable or usable as a context.

    One field per :data:`KNOBS` row (``KNOBS[name].doc`` says what
    each means), validated and stored canonicalised by the row's
    ``check``.  ``None`` means "defer to the next layer of the
    resolution order" — an installed ``ExecutionPolicy()`` with all
    defaults is indistinguishable from no policy at all.
    """

    executor: Optional[str] = None
    fleet_hosts: Optional[Tuple[str, ...]] = None
    fleet_timeout: Optional[float] = None
    fleet_retries: Optional[int] = None
    fleet_on_failure: Optional[str] = None
    # repr=False: the row is ``secret`` — never in reprs or logs
    fleet_secret: Optional[str] = field(default=None, repr=False)
    gateway_bind: Optional[str] = None
    gateway_token_file: Optional[str] = None
    search_fragment_size: Optional[int] = None
    search_fragment_count: Optional[int] = None
    search_max_hits: Optional[int] = None

    def __post_init__(self) -> None:
        for knob in KNOBS.values():
            value = getattr(self, knob.name)
            if value is not None:
                object.__setattr__(self, knob.name, knob.check(value))

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


def engine(**knobs: object) -> AbstractContextManager[ExecutionPolicy]:
    """Scoped override: ``with repro.engine(executor="rpc"): ...``.

    ``knobs`` are the :class:`ExecutionPolicy` fields by name:
    ``repro.engine(executor="rpc", fleet_hosts=("db1:7401", "db2:7401"),
    fleet_timeout=5.0, fleet_on_failure="degrade")``.  Nested contexts
    stack and the innermost one that pins a given field wins, so
    ``with engine(fleet_retries=2), engine(executor="rpc"):`` runs
    the rpc executor *with* the retry budget.  Thread- and
    async-safe (backed by a :class:`contextvars.ContextVar`).
    """
    return ExecutionPolicy(**knobs).use()


# ---------------------------------------------------------------------------
# Resolution


def resolve(name: str, explicit: object = None) -> Tuple[object, str]:
    """``(value, deciding layer)`` for the knob ``name`` — the one
    walk of explicit > context > policy > env > default.

    Context and policy values were canonicalised when their
    ``ExecutionPolicy`` was built, so only the explicit and env layers
    validate (and only they can load the wire-protocol module).
    """
    knob = KNOBS[name]
    if explicit is not None:
        return knob.check(explicit), "explicit"
    for frame in reversed(_OVERRIDES.get()):
        value = getattr(frame, name)
        if value is not None:
            return value, "context"
    if _POLICY is not None:
        value = getattr(_POLICY, name)
        if value is not None:
            return value, "policy"
    text = os.environ.get(knob.env_var, "").strip()
    if text:
        try:
            value = knob.parse_env(text)
            return (value if value is None else knob.check(value)), "env"
        except (ValueError, ConfigurationError):
            if knob.strict_env:
                raise
    return knob.default, "default"


def _alias(name: str) -> Callable[..., Tuple[object, str]]:
    """The public ``resolve_<knob>(explicit=None)`` spelling of
    ``resolve(name, explicit)``, documented from the row."""
    def resolver(explicit: object = None) -> Tuple[object, str]:
        return resolve(name, explicit)
    resolver.__doc__ = (f"``(value, deciding layer)`` for the ``{name}`` "
                        f"knob: {KNOBS[name].doc}.")
    return resolver


resolve_executor_name = _alias("executor")
resolve_fleet_hosts = _alias("fleet_hosts")
resolve_fleet_timeout = _alias("fleet_timeout")
resolve_fleet_retries = _alias("fleet_retries")
resolve_fleet_on_failure = _alias("fleet_on_failure")
resolve_fleet_secret = _alias("fleet_secret")
resolve_gateway_bind = _alias("gateway_bind")
resolve_gateway_token_file = _alias("gateway_token_file")
resolve_search_fragment_size = _alias("search_fragment_size")
resolve_search_fragment_count = _alias("search_fragment_count")
resolve_search_max_hits = _alias("search_max_hits")


def describe_knob(name: str) -> Dict[str, object]:
    """One row's :func:`describe_policy` entries: ``<name>`` (for a
    secret row only ``<name>_set`` — presence is operational state, the
    value never appears in a diagnostics dump) and ``<name>_source``.
    Never raises on a bad environment: an invalid export of a strict
    row reports value ``None``, source ``"env (invalid)"`` and the
    message under ``<name>_error``."""
    knob, error = KNOBS[name], {}
    try:
        value, source = resolve(name)
    except ConfigurationError as exc:
        value, source = None, "env (invalid)"
        error = {f"{name}_error": str(exc)}
    shown = {f"{name}_set": value is not None} if knob.secret else {name: value}
    return {**shown, f"{name}_source": source, **error}


def describe_policy() -> Dict[str, object]:
    """Inspectable snapshot of the resolution: what would run now, and
    which layer decided it.  The answer an operator needs when a fleet
    node misbehaves (e.g. a stale ``REPRO_FLEET_EXECUTOR=rpc`` export
    sending every pass to workers nobody started)."""
    snapshot: Dict[str, object] = {}
    for name in KNOBS:
        snapshot.update(describe_knob(name))
    snapshot.update(
        installed_policy=_POLICY,
        active_overrides=len(_OVERRIDES.get()))
    return snapshot
