"""``repro.api`` — the package's v1 public surface.

Two pieces:

* :mod:`repro.api.policy` — the :class:`ExecutionPolicy` knob table
  that gives every deployment tunable (fleet dispatch, gateway,
  search) one lazy resolution order: explicit argument > context
  override (``with repro.engine(executor="rpc"):``) > installed
  policy > environment variable > default;
* :mod:`repro.api.store` — :class:`TamperEvidentStore`, the façade
  that drives the whole stack (device, file system, integrity layers)
  through typed request/response objects whose native grain is the
  batched fast path (``seal_many``, ``audit`` → :class:`AuditReport`);
* :mod:`repro.api.fleet` — :class:`FleetStore`, the rack-scale façade:
  the same store surface sharded across member stores by
  content-addressed consistent hashing, with fleet-wide passes fanned
  out on one of the two executors of :mod:`repro.parallel` (``serial``
  in-process or ``rpc`` across processes, selected through the same
  policy chain via ``repro.engine(executor=...)`` /
  ``REPRO_FLEET_EXECUTOR``;
  the remote executor's worker hosts resolve the same way via
  ``repro.engine(fleet_hosts=...)`` / ``REPRO_FLEET_HOSTS``).

``repro.api.__all__`` is the frozen public surface; a snapshot test
(``tests/test_api_surface.py``) fails when it changes without an
explicit update.
"""

from __future__ import annotations

from .policy import (
    DEFAULT_EXECUTOR,
    DEFAULT_GATEWAY_BIND,
    EXECUTOR_ENV_VAR,
    FLEET_HOSTS_ENV_VAR,
    FLEET_ON_FAILURE_ENV_VAR,
    FLEET_ON_FAILURE_MODES,
    FLEET_RETRIES_ENV_VAR,
    FLEET_SECRET_ENV_VAR,
    FLEET_TIMEOUT_ENV_VAR,
    GATEWAY_BIND_ENV_VAR,
    GATEWAY_TOKEN_FILE_ENV_VAR,
    GATEWAY_TOKENS_ENV_VAR,
    SEARCH_FRAGMENT_COUNT_ENV_VAR,
    SEARCH_FRAGMENT_SIZE_ENV_VAR,
    SEARCH_MAX_HITS_ENV_VAR,
    ExecutionPolicy,
    describe_policy,
    engine,
    get_policy,
    resolve_executor_name,
    resolve_fleet_hosts,
    resolve_fleet_on_failure,
    resolve_fleet_retries,
    resolve_fleet_secret,
    resolve_fleet_timeout,
    resolve_gateway_bind,
    resolve_gateway_token_file,
    resolve_search_fragment_count,
    resolve_search_fragment_size,
    resolve_search_max_hits,
    set_policy,
)
from ..parallel import (
    FleetExecutor,
    MemberFailure,
    resolve_fleet_executor,
)

#: Store-layer names, imported lazily (PEP 562) so that the policy
#: layer stays importable on its own: ``repro.parallel`` resolves its
#: knobs through it and is itself imported by the store machinery.
_STORE_EXPORTS = (
    "TamperEvidentStore",
    "StoreConfig",
    "ObjectInfo",
    "SealReceipt",
    "VerifyReport",
    "AuditReport",
    "MemberVerdictRecord",
    "ArchiveReceipt",
    "EvidenceExport",
    "FormatReport",
)

#: Fleet-layer names, lazily imported for the same reason (the fleet
#: façade sits on top of the store machinery).
_FLEET_EXPORTS = (
    "FleetStore",
    "FleetEvidenceExport",
    "FleetOpStats",
    "MigrationReport",
)

__all__ = [
    # policy
    "ExecutionPolicy",
    "engine",
    "set_policy",
    "get_policy",
    "describe_policy",
    # fleet executors
    "FleetExecutor",
    "MemberFailure",
    "resolve_executor_name",
    "resolve_fleet_hosts",
    "resolve_fleet_on_failure",
    "resolve_fleet_retries",
    "resolve_fleet_secret",
    "resolve_fleet_timeout",
    "resolve_fleet_executor",
    "EXECUTOR_ENV_VAR",
    "FLEET_HOSTS_ENV_VAR",
    "FLEET_ON_FAILURE_ENV_VAR",
    "FLEET_ON_FAILURE_MODES",
    "FLEET_RETRIES_ENV_VAR",
    "FLEET_SECRET_ENV_VAR",
    "FLEET_TIMEOUT_ENV_VAR",
    "DEFAULT_EXECUTOR",
    # gateway config (the gateway itself lives in repro.gateway)
    "resolve_gateway_bind",
    "resolve_gateway_token_file",
    "GATEWAY_BIND_ENV_VAR",
    "GATEWAY_TOKENS_ENV_VAR",
    "GATEWAY_TOKEN_FILE_ENV_VAR",
    "DEFAULT_GATEWAY_BIND",
    # evidence search config (the index itself lives in repro.search)
    "resolve_search_fragment_size",
    "resolve_search_fragment_count",
    "resolve_search_max_hits",
    "SEARCH_FRAGMENT_SIZE_ENV_VAR",
    "SEARCH_FRAGMENT_COUNT_ENV_VAR",
    "SEARCH_MAX_HITS_ENV_VAR",
    # store façade
    *_STORE_EXPORTS,
    # fleet façade
    *_FLEET_EXPORTS,
]


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from . import store as _store

        value = getattr(_store, name)
        globals()[name] = value
        return value
    if name in _FLEET_EXPORTS:
        from . import fleet as _fleet

        value = getattr(_fleet, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_STORE_EXPORTS) | set(_FLEET_EXPORTS))
