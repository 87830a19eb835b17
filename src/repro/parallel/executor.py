"""Fleet executors: how a pass over many stores is dispatched.

The :class:`~repro.api.fleet.FleetStore` expresses a fleet pass as a
list of independent *member tasks* — zero-argument
callables, one per fleet member, each returning ``(payload, state)``
where ``payload`` is the typed per-member result and ``state`` is the
(possibly relocated) member object to reinstall.  A
:class:`FleetExecutor` decides *where* those tasks run:

* :class:`SerialExecutor` — in order, in the calling thread (the
  reference dispatch; every other executor must match its per-member
  results byte for byte);
* :class:`ThreadExecutor` — a thread pool.  The ambient
  :mod:`contextvars` context (``with repro.engine(...):`` overrides)
  is captured per task, so policy scopes behave exactly as they do
  serially;
* :class:`ProcessExecutor` — a process pool.  Tasks must be picklable
  (``functools.partial`` over module-level functions); member state
  travels to the worker as a compact snapshot (see
  :meth:`repro.medium.medium.PatternedMedium.__getstate__`) and the
  mutated state travels back, so the caller's fleet ends the pass in
  exactly the state a serial pass would have produced.

Executors are *registered by name* (:func:`register_executor`) and
selected through the same lazy resolution chain as every other knob
— explicit argument > ``with repro.engine(executor="thread"):``
context > installed :class:`~repro.api.policy.ExecutionPolicy` >
``REPRO_FLEET_EXECUTOR`` (read at dispatch time) > ``"serial"`` — via
:func:`resolve_fleet_executor`.

Every run returns an :class:`ExecutionOutcome` carrying, besides the
in-order task results, the per-worker wall-clock breakdown and the
task→worker assignment.  The fleet store folds the breakdown into its
:class:`~repro.api.fleet.FleetOpStats` (``fleet.last_op``) so an
operator can see not just *that* a pass was parallel but how the work
actually spread.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
        worker: stable worker label (``"serial-0"``, ``"thread-3"``,
            ``"pid-4242"``).
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
            for in-host executors).
        bytes_out: wire payload bytes sent per remote host this pass
            (empty for in-host executors).
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


def _effective_workers(max_workers: Optional[int], n_tasks: int) -> int:
    """Workers a pool pass should use: never more than tasks, default
    one per core."""
    cap = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def _collect_walls(per_worker: Dict[str, List[float]]) -> List[WorkerWall]:
    return [WorkerWall(worker=label, tasks=len(walls),
                       wall_seconds=sum(walls))
            for label, walls in sorted(per_worker.items())]


class FleetExecutor:
    """Dispatch strategy for a fleet pass (base class).

    Subclasses implement :meth:`run`; ``name`` is the registry key the
    resolution chain selects them by.
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

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # accepted (and ignored) so every factory has one signature
        self.max_workers = 1

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


def _timed_in_context(ctx: contextvars.Context,
                      task: MemberTask) -> Tuple[str, float, Tuple[Any, Any]]:
    """Thread-pool task wrapper: run under the submitter's contextvars
    snapshot and report (worker label, wall, result)."""
    t0 = time.perf_counter()
    result = ctx.run(task)
    wall = time.perf_counter() - t0
    ident = threading.current_thread().name
    return ident, wall, result


class ThreadExecutor(FleetExecutor):
    """Thread-pool dispatch.

    Useful when the per-member work releases the GIL (the span/batched
    engines spend their time inside numpy) or waits on I/O; the ambient
    ``repro.engine(...)`` context is propagated to every task, so a
    knob pinned for the pass reads the same on every worker.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        n = len(tasks)
        if n == 0:
            return ExecutionOutcome(workers=0)
        workers = _effective_workers(self.max_workers, n)
        outcome = ExecutionOutcome(workers=workers)
        futures = []
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix=f"{self.name}-pool") as pool:
            for task in tasks:
                # one context copy per task: a Context cannot be
                # entered concurrently from two threads
                ctx = contextvars.copy_context()
                futures.append(pool.submit(_timed_in_context, ctx, task))
            per_worker: Dict[str, List[float]] = {}
            for future in futures:
                ident, wall, result = future.result()
                label = "thread-" + ident.rsplit("_", 1)[-1]
                outcome.results.append(result)
                outcome.assignments.append(label)
                per_worker.setdefault(label, []).append(wall)
        outcome.worker_walls = _collect_walls(per_worker)
        return outcome


def _process_task(task: MemberTask) -> Tuple[str, float, Tuple[Any, Any]]:
    """Process-pool task wrapper (module-level for picklability)."""
    t0 = time.perf_counter()
    result = task()
    wall = time.perf_counter() - t0
    return f"pid-{os.getpid()}", wall, result


class ProcessExecutor(FleetExecutor):
    """Process-pool dispatch: real CPU parallelism.

    Each task's arguments (the member store) are pickled to the
    worker — the medium pickles as a compact snapshot, and the RNG
    state rides along, so the worker continues the member's exact
    random sequence — and the mutated store is pickled back and
    reinstalled by the caller.  Per-member results are therefore
    byte-identical to a serial pass.

    ``with repro.engine(...):`` *context* overrides do not cross the
    process boundary (contextvars are per-process); nothing a member
    task runs consults the policy (a member's engine is its own
    ``DeviceConfig.span_engine``), so member behaviour is unaffected.
    Environment-variable policy layers propagate to workers as part of
    the inherited environment.
    """

    name = "process"
    crosses_process = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool (spawning workers per *pass* would make
        pool startup, not the fleet, the measured quantity).  Guarded:
        cached instances are shared across gateway handler threads, and
        two unlocked creators would leak a pool."""
        with self._pool_lock:
            if self._pool is not None and self._pool_workers < workers:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self._pool_workers = workers
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def run(self, tasks: Sequence[MemberTask]) -> ExecutionOutcome:
        n = len(tasks)
        if n == 0:
            return ExecutionOutcome(workers=0)
        workers = _effective_workers(self.max_workers, n)
        outcome = ExecutionOutcome(workers=workers)
        per_worker: Dict[str, List[float]] = {}
        pool = self._ensure_pool(workers)
        try:
            futures = [pool.submit(_process_task, task) for task in tasks]
            for future in futures:
                label, wall, result = future.result()
                outcome.results.append(result)
                outcome.assignments.append(label)
                per_worker.setdefault(label, []).append(wall)
        except BaseException:
            self.close()  # a broken pool must not poison the next pass
            raise
        outcome.worker_walls = _collect_walls(per_worker)
        return outcome


# ---------------------------------------------------------------------------
# Executor registry


@dataclass(frozen=True)
class ExecutorSpec:
    """One registered fleet executor.

    Attributes:
        name: registry key, as accepted by
            ``repro.engine(executor=...)`` and
            :attr:`~repro.api.policy.ExecutionPolicy.executor`.
        factory: ``factory(max_workers=None) -> FleetExecutor``.
        description: one-line human description.
    """

    name: str
    factory: Callable[..., FleetExecutor]
    description: str = ""


_EXECUTORS: Dict[str, ExecutorSpec] = {}

_BUILTIN_EXECUTORS = ("serial", "thread", "process", "rpc")


#: Instances handed out by :func:`make_executor`, keyed by
#: ``(name, max_workers)``.  Name-resolved executors are shared so a
#: process executor's worker pool stays warm across fleet passes.
#: Concurrent gateway handler threads resolve executors per pass, so
#: the cache is guarded: an unlocked check-then-set would let two
#: threads build two process pools and leak one.
_INSTANCES: Dict[Tuple[str, Optional[int]], FleetExecutor] = {}

_INSTANCES_LOCK = threading.Lock()


def _drop_instances(name: str) -> None:
    with _INSTANCES_LOCK:
        dropped = [_INSTANCES.pop(k)
                   for k in [k for k in _INSTANCES if k[0] == name]]
    for instance in dropped:
        close = getattr(instance, "close", None)
        if close is not None:
            close()


def close_executors() -> None:
    """Shut down and evict every cached executor instance.

    Cached process executors keep their worker pools alive between
    passes (that is the point); a long-lived service that is done with
    fleet work — or that swept many distinct ``max_workers`` bounds —
    calls this to release the pools.  The next resolution simply
    builds fresh instances.

    The rpc executor's worker *connections* are pooled module-wide in
    :mod:`repro.parallel.remote` (its host list resolves lazily, so
    sockets key by address, not by executor instance); dropping cached
    instances alone would leak those sockets, so the connection pool is
    closed here too — including when every rpc dispatch went through
    explicit (never-cached) executor instances.
    """
    with _INSTANCES_LOCK:
        names = {key[0] for key in _INSTANCES}
    for name in names:
        _drop_instances(name)
    import sys

    remote = sys.modules.get(__package__ + ".remote")
    if remote is not None:  # never imported → no pools to close
        remote.close_connection_pools()


def register_executor(spec: ExecutorSpec, *,
                      replace: bool = False) -> ExecutorSpec:
    """Register an executor so policies/contexts can select it by name.

    Raises ``ValueError`` for a duplicate name unless ``replace``.
    """
    if not spec.name or not spec.name.isidentifier() or \
            spec.name != spec.name.lower():
        raise ValueError(
            "executor name must be a lowercase identifier (the "
            f"REPRO_FLEET_EXECUTOR layer matches case-insensitively): "
            f"{spec.name!r}")
    if spec.name in _EXECUTORS and not replace:
        raise ValueError(f"executor {spec.name!r} already registered")
    _drop_instances(spec.name)  # a replaced factory must take effect
    _EXECUTORS[spec.name] = spec
    return spec


def unregister_executor(name: str) -> None:
    """Remove a registered executor (built-ins are protected)."""
    if name in _BUILTIN_EXECUTORS:
        raise ValueError(f"cannot unregister built-in executor {name!r}")
    _drop_instances(name)
    _EXECUTORS.pop(name, None)


def available_executors() -> Tuple[str, ...]:
    """Names of all registered executors, registration order."""
    return tuple(_EXECUTORS)


def get_executor_spec(name: str) -> ExecutorSpec:
    """Look up a registered executor by name."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered: {', '.join(_EXECUTORS)}"
        ) from None


def make_executor(name: str,
                  max_workers: Optional[int] = None) -> FleetExecutor:
    """A registered executor instance for ``(name, max_workers)``.

    Instances are cached: every pass that resolves the same name and
    worker bound shares one executor, so stateful dispatchers (the
    process pool) stay warm between passes instead of respawning
    workers per call.
    """
    spec = get_executor_spec(name)
    key = (name, max_workers)
    with _INSTANCES_LOCK:
        instance = _INSTANCES.get(key)
        if instance is None:
            instance = spec.factory(max_workers=max_workers)
            _INSTANCES[key] = instance
    return instance


def _rpc_factory(max_workers: Optional[int] = None) -> FleetExecutor:
    """Build the remote executor (imported lazily so the wire-protocol
    module only loads when rpc dispatch is actually selected).
    ``max_workers`` is the registry's shared factory signature and a
    no-op here: an rpc pass runs one thread per worker host."""
    from .remote import RpcExecutor

    return RpcExecutor()


register_executor(ExecutorSpec(
    "serial", SerialExecutor,
    "in-order dispatch in the calling thread (the reference)"))
register_executor(ExecutorSpec(
    "thread", ThreadExecutor,
    "thread pool; contextvars-propagating, numpy releases the GIL"))
register_executor(ExecutorSpec(
    "process", ProcessExecutor,
    "process pool; members travel as compact pickled snapshots"))
register_executor(ExecutorSpec(
    "rpc", _rpc_factory,
    "TCP dispatch to remote worker daemons (REPRO_FLEET_HOSTS)"))


def resolve_fleet_executor(
        explicit: Union[None, str, FleetExecutor] = None,
        max_workers: Optional[int] = None) -> FleetExecutor:
    """Resolve the executor a fleet pass should dispatch on.

    ``explicit`` may be a ready :class:`FleetExecutor` instance (used
    as-is), a registered name, or None to defer to the lazy policy
    chain (context > installed policy > ``REPRO_FLEET_EXECUTOR`` read
    now > ``"serial"``).  ``max_workers`` resolves through the same
    chain independently, so ``REPRO_FLEET_WORKERS=4`` bounds whichever
    executor wins.
    """
    if isinstance(explicit, FleetExecutor):
        if max_workers is not None and \
                getattr(explicit, "max_workers", None) != max_workers:
            raise ValueError(
                "pass the worker bound on the executor instance itself "
                f"({type(explicit).__name__}(max_workers={max_workers})); "
                "a ready instance is used as-is and would silently "
                "ignore a conflicting max_workers argument")
        return explicit
    # lazy: this module must stay importable before repro.api finishes
    # initialising (repro.api re-exports the executor registry)
    from ..api import policy as _policy

    name, _source = _policy.resolve_executor_name(explicit)
    max_workers, _source = _policy.resolve_max_workers(max_workers)
    return make_executor(name, max_workers)
