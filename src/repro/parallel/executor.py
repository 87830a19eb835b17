"""Fleet executors: how a pass over many stores is dispatched.

The :class:`~repro.api.fleet.FleetStore` expresses a fleet pass as a
list of independent :class:`MemberTask` records, one per fleet member:
a member store, the name of one of its four pass methods and that
method's keyword arguments.  A :class:`FleetExecutor` decides *where*
those tasks run, and there is one per boundary:

* :class:`SerialExecutor` (``"serial"``) — in order, in the calling
  thread: the in-process dispatch and the reference every other
  dispatch must match byte for byte;
* :class:`~repro.parallel.remote.RpcExecutor` (``"rpc"``) — worker
  daemons across a process (or machine) boundary, each member pinned
  once and later passes sending only the verb and its arguments.

:func:`resolve_fleet_executor` picks one through the same lazy
resolution chain as every other knob — explicit argument > ``with
repro.engine(executor="rpc"):`` context > installed
:class:`~repro.api.policy.ExecutionPolicy` > ``REPRO_FLEET_EXECUTOR``
(read at dispatch time) > ``"serial"`` — or takes a ready
:class:`FleetExecutor` instance as-is.

Every run returns one :class:`ExecutionOutcome`: the in-order task
payloads plus the rpc executor's per-host wire and fault counters.
Either way the caller-held member stores end the pass holding its
state.  The fleet store stamps the outcome with the operation,
executor and wall clock, drops the results, and keeps it as
``fleet.last_op`` — the pass's only record.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Sequence, Tuple, Union


@dataclass(frozen=True)
class MemberTask:
    """One member's share of a fleet pass: ``store.<verb>(**kwargs)``.

    ``verb`` names one of the four
    :class:`~repro.api.store.TamperEvidentStore` pass methods
    (:attr:`VERBS`); any other name is a ``ValueError`` here.  Calling
    the task runs the method and returns its typed payload.  The
    ``rpc`` executor pins ``store`` on a worker and sends only the verb
    and its arguments; any object that is not a ``MemberTask`` is a
    ``TypeError`` there.
    """

    VERBS: ClassVar[Tuple[str, ...]] = (
        "audit", "seal_many", "export_evidence", "format_device")

    store: Any
    verb: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verb not in self.VERBS:
            raise ValueError(
                f"a member task runs one of {', '.join(self.VERBS)}, "
                f"not {self.verb!r}")

    def __call__(self) -> Any:
        return getattr(self.store, self.verb)(**self.kwargs)


@dataclass(frozen=True)
class MemberFailure:
    """Typed record of one member task an executor could not complete.

    Produced only in the ``rpc`` executor's *degraded* mode
    (``on_failure="degrade"``): a member whose dispatch exhausted its
    failover retries — or whose task raised on a worker — comes back as
    this record in the task's result slot instead of aborting the whole
    pass.  The fleet store skips folding for it (the caller-held member
    keeps its pre-pass state) and surfaces it in
    :attr:`ExecutionOutcome.failures` (``fleet.last_op.failures``).

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


@dataclass
class ExecutionOutcome:
    """The one record of a fleet pass.

    An executor fills ``results`` and the dispatch fields;
    :class:`~repro.api.fleet.FleetStore` stamps ``operation``,
    ``executor`` and ``wall_seconds``, re-keys ``failures`` to member
    indices, empties ``results`` (a kept record never pins payloads)
    and keeps it as ``fleet.last_op``.

    Attributes:
        operation: the fleet verb (``"audit"``, ``"seal_many"``, ...).
        executor: name of the executor that dispatched the pass.
        wall_seconds: host wall clock of the whole dispatch.
        results: per-task payloads, in task order.
        hosts: remote worker addresses the pass dispatched to (empty
            for the serial executor).
        bytes_out: wire payload bytes sent per remote host this pass
            (empty for the serial executor): snapshot-sized on a cold
            (pinning) pass, descriptor-sized once pinned.
        bytes_back: wire payload bytes received per remote host.
        retries: member re-dispatches per *failed* host — ``{addr: n}``
            means ``n`` member tasks had to fail over off ``addr``
            (empty when the pass saw no faults).
        timeouts: per-host count of request deadlines that expired
            (:class:`~repro.parallel.remote.RpcTimeoutError`).
        failures: degraded-mode :class:`MemberFailure` records, member
            order.  When non-empty, the corresponding ``results`` slots
            hold the failure record instead of a payload.
    """

    operation: str = ""
    executor: str = ""
    wall_seconds: float = 0.0
    results: List[Any] = field(default_factory=list)
    hosts: Tuple[str, ...] = ()
    bytes_out: Dict[str, int] = field(default_factory=dict)
    bytes_back: Dict[str, int] = field(default_factory=dict)
    retries: Dict[str, int] = field(default_factory=dict)
    timeouts: Dict[str, int] = field(default_factory=dict)
    failures: List[MemberFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the pass completed without some of its members."""
        return bool(self.failures)


class FleetExecutor:
    """Dispatch strategy for a fleet pass (base class).

    Subclasses implement :meth:`run`; ``name`` is what
    :attr:`ExecutionOutcome.executor` reports.  Hand a
    ready instance to ``FleetStore(executor=...)`` to dispatch a fleet
    some other way.
    """

    name: str = "abstract"

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        raise NotImplementedError


class SerialExecutor(FleetExecutor):
    """The reference dispatch: tasks run in order, in-thread."""

    name = "serial"

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        return ExecutionOutcome(results=[task() for task in tasks])


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

    name, _source = _policy.resolve("executor", explicit)
    if name == "serial":
        return SerialExecutor()
    # the wire-protocol module loads only when rpc dispatch is selected
    from .remote import RpcExecutor

    return RpcExecutor()
