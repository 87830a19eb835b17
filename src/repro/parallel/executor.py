"""Fleet executors: how a pass over many stores is dispatched.

The :class:`~repro.api.fleet.FleetStore` expresses a fleet pass as a
list of independent *member tasks* — zero-argument
callables, one per fleet member, each returning ``(payload, state)``
where ``payload`` is the typed per-member result and ``state`` is the
(possibly relocated) member object to reinstall.  A
:class:`FleetExecutor` decides *where* those tasks run, and there is
one per boundary:

* :class:`SerialExecutor` (``"serial"``) — in order, in the calling
  thread: the in-process dispatch and the reference every other
  dispatch must match byte for byte;
* :class:`~repro.parallel.remote.RpcExecutor` (``"rpc"``) — worker
  daemons across a process (or machine) boundary, each member pinned
  once and later passes sending only task descriptors.

:func:`resolve_fleet_executor` picks one through the same lazy
resolution chain as every other knob — explicit argument > ``with
repro.engine(executor="rpc"):`` context > installed
:class:`~repro.api.policy.ExecutionPolicy` > ``REPRO_FLEET_EXECUTOR``
(read at dispatch time) > ``"serial"`` — or takes a ready
:class:`FleetExecutor` instance as-is.

Every run returns an :class:`ExecutionOutcome` carrying, besides the
in-order task results, the per-worker wall-clock breakdown and the
task→worker assignment.  The fleet store folds the breakdown into its
:class:`~repro.api.fleet.FleetOpStats` (``fleet.last_op``) so an
operator can see not just *that* a pass ran remotely but how the work
actually spread.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

#: A member task: zero-argument callable returning ``(payload, state)``.
MemberTask = Callable[[], Tuple[Any, Any]]


@dataclass(frozen=True)
class MemberFailure:
    """Typed record of one member task an executor could not complete.

    Produced only in the ``rpc`` executor's *degraded* mode
    (``on_failure="degrade"``): a member whose dispatch exhausted its
    failover retries — or whose task raised on a worker — comes back as
    this record in the task's result slot instead of aborting the whole
    pass.  The fleet store skips folding for it (the caller-held member
    keeps its pre-pass state) and surfaces it in
    :attr:`~repro.api.fleet.FleetOpStats.failures`.

    Attributes:
        index: position of the member's task in the pass.
        error_type: class name of the final error.
        message: final error message.
        hosts_tried: worker addresses that failed this member, in
            dispatch order (empty when the task itself raised).
        attempts: dispatch attempts made (1 = no retry happened).
        timed_out: the final failure was an
            :class:`~repro.parallel.remote.RpcTimeoutError`.
    """

    index: int
    error_type: str
    message: str
    hosts_tried: Tuple[str, ...] = ()
    attempts: int = 1
    timed_out: bool = False


@dataclass(frozen=True)
class WorkerWall:
    """Wall-clock share of one worker in one fleet pass.

    Attributes:
        worker: stable worker label (``"serial-0"``,
            ``"rpc-host:port"``).
        tasks: member tasks this worker executed.
        wall_seconds: host wall-clock the worker spent inside tasks.
    """

    worker: str
    tasks: int
    wall_seconds: float


@dataclass
class ExecutionOutcome:
    """What one executor run produced.

    Attributes:
        results: per-task ``(payload, state)`` tuples, in task order.
        assignments: worker label per task, in task order.
        worker_walls: per-worker wall-clock breakdown.
        workers: workers the pass actually used.
        hosts: remote worker addresses the pass dispatched to (empty
            for the serial executor).
        bytes_out: wire payload bytes sent per remote host this pass
            (empty for the serial executor).
        bytes_back: wire payload bytes received per remote host.
        retries: member re-dispatches per *failed* host — ``{addr: n}``
            means ``n`` member tasks had to fail over off ``addr``
            (empty when the pass saw no faults).
        timeouts: per-host count of request deadlines that expired
            (:class:`~repro.parallel.remote.RpcTimeoutError`).
        failures: degraded-mode :class:`MemberFailure` records, member
            order.  When non-empty, the corresponding ``results`` slots
            hold the failure record instead of ``(payload, state)``.
    """

    results: List[Tuple[Any, Any]] = field(default_factory=list)
    assignments: List[str] = field(default_factory=list)
    worker_walls: List[WorkerWall] = field(default_factory=list)
    workers: int = 1
    hosts: Tuple[str, ...] = ()
    bytes_out: Dict[str, int] = field(default_factory=dict)
    bytes_back: Dict[str, int] = field(default_factory=dict)
    retries: Dict[str, int] = field(default_factory=dict)
    timeouts: Dict[str, int] = field(default_factory=dict)
    failures: List[MemberFailure] = field(default_factory=list)


def _collect_walls(per_worker: Dict[str, List[float]]) -> List[WorkerWall]:
    return [WorkerWall(worker=label, tasks=len(walls),
                       wall_seconds=sum(walls))
            for label, walls in sorted(per_worker.items())]


class FleetExecutor:
    """Dispatch strategy for a fleet pass (base class).

    Subclasses implement :meth:`run`; ``name`` is what
    :attr:`~repro.api.fleet.FleetOpStats.executor` reports.  Hand a
    ready instance to ``FleetStore(executor=...)`` to dispatch a fleet
    some other way.
    """

    name: str = "abstract"

    #: True when tasks run in another process (member state returned
    #: by value).  Task builders use this to decide between returning
    #: the member itself (cheap in-process) and a compact snapshot or
    #: state patch (what must cross a process boundary).
    crosses_process: bool = False

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        raise NotImplementedError


class SerialExecutor(FleetExecutor):
    """The reference dispatch: tasks run in order, in-thread."""

    name = "serial"

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        outcome = ExecutionOutcome(workers=1)
        wall = 0.0
        for task in tasks:
            t0 = time.perf_counter()
            outcome.results.append(task())
            wall += time.perf_counter() - t0
            outcome.assignments.append("serial-0")
        outcome.worker_walls = [
            WorkerWall(worker="serial-0", tasks=len(tasks),
                       wall_seconds=wall)]
        return outcome


def close_executors() -> None:
    """Release what fleet dispatch holds between passes.

    Both executors are stateless; the rpc executor's worker
    *connections* are pooled module-wide in :mod:`repro.parallel.remote`
    (sockets key by address, not by executor instance), so a
    long-lived service that is done with fleet work calls this to close
    them.  A no-op when the wire module was never loaded; the next rpc
    pass simply dials fresh connections.
    """
    remote = sys.modules.get(__package__ + ".remote")
    if remote is not None:  # never imported → no pools to close
        remote.close_connection_pools()


def resolve_fleet_executor(
        explicit: Union[None, str, FleetExecutor] = None) -> FleetExecutor:
    """Resolve the executor a fleet pass should dispatch on.

    ``explicit`` may be a ready :class:`FleetExecutor` instance (used
    as-is), ``"serial"`` / ``"rpc"``, or None to defer to the lazy
    policy chain (context > installed policy > ``REPRO_FLEET_EXECUTOR``
    read now > ``"serial"``).  A named rpc executor resolves its hosts
    and fault policy through the same chain at each dispatch.
    """
    if isinstance(explicit, FleetExecutor):
        return explicit
    # lazy: this module must stay importable before repro.api finishes
    # initialising (repro.api re-exports this function)
    from ..api import policy as _policy

    name, _source = _policy.resolve_executor_name(explicit)
    if name == "serial":
        return SerialExecutor()
    # the wire-protocol module loads only when rpc dispatch is selected
    from .remote import RpcExecutor

    return RpcExecutor()
