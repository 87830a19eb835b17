"""``repro.parallel`` — the fleet execution layer.

Two executors dispatch per-member fleet tasks — :class:`SerialExecutor`
in-process and :class:`~repro.parallel.remote.RpcExecutor` across
processes — selected by name through the execution-policy chain
(:func:`resolve_fleet_executor`), and :class:`HashRing` provides the
content-addressed shard routing the
:class:`~repro.api.fleet.FleetStore` spreads objects with.  The
``rpc`` executor ships members to worker daemons on other machines
(``python -m repro.parallel.remote serve``) over a framed pickle
protocol; see :mod:`repro.parallel.remote`.

This package sits just above :mod:`repro.api.policy` in the import
graph and imports nothing else from the package at import time, so the
policy layer can resolve executor names lazily without cycles.
"""

from __future__ import annotations

from .executor import (
    ExecutionOutcome,
    FleetExecutor,
    MemberFailure,
    MemberTask,
    SerialExecutor,
    WorkerWall,
    close_executors,
    resolve_fleet_executor,
)
from .locks import MemberLockSet
from .ring import HashRing, shard_key

#: Remote-executor names, imported lazily (PEP 562): the wire-protocol
#: module only loads when rpc dispatch is actually used, and
#: ``python -m repro.parallel.remote`` does not double-import it.
_REMOTE_EXPORTS = (
    "HOSTS_ENV_VAR",
    "LocalWorker",
    "RemoteTaskError",
    "RpcConnectionError",
    "RpcError",
    "RpcExecutor",
    "RpcProtocolError",
    "RpcTimeoutError",
    "close_connection_pools",
    "host_health_snapshot",
    "parse_hosts",
    "reset_host_health",
    "spawn_local_worker",
)


def __getattr__(name: str):
    if name in _REMOTE_EXPORTS:
        from . import remote as _remote

        value = getattr(_remote, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_REMOTE_EXPORTS))


__all__ = [
    "HOSTS_ENV_VAR",
    "LocalWorker",
    "RemoteTaskError",
    "RpcConnectionError",
    "RpcError",
    "RpcExecutor",
    "RpcProtocolError",
    "RpcTimeoutError",
    "close_connection_pools",
    "host_health_snapshot",
    "parse_hosts",
    "reset_host_health",
    "spawn_local_worker",
    "ExecutionOutcome",
    "FleetExecutor",
    "HashRing",
    "MemberFailure",
    "MemberLockSet",
    "MemberTask",
    "SerialExecutor",
    "WorkerWall",
    "close_executors",
    "resolve_fleet_executor",
    "shard_key",
]
