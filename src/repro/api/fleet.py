"""The :class:`FleetStore` façade — one tamper-evident store, rack-sized.

The paper's service is per-device; the ROADMAP's north star is
rack-scale compliance traffic.  This module closes the gap: a
:class:`FleetStore` fronts many member
:class:`~repro.api.store.TamperEvidentStore` instances behind the
*same* typed request/response surface as a single store, sharding
objects across members by content-addressed consistent hashing
(:class:`~repro.parallel.ring.HashRing` over each path's SHA-256) and
fanning whole-fleet passes (``seal_many``, ``audit``,
``export_evidence``, ``format_devices``) out on the resolved fleet
executor (:func:`repro.parallel.resolve_fleet_executor`: explicit arg
> ``with repro.engine(executor=...)`` > installed policy >
``REPRO_FLEET_EXECUTOR``, read at dispatch time).

Routing properties worth knowing:

* **deterministic** — the member that stored ``/ledger/2026/07`` is a
  pure function of the path and the member list, so a million-object
  workload spreads without any central index;
* **rebalance-stable** — :meth:`FleetStore.add_member` remaps only
  ~1/(n+1) of the keyspace (the hash ring's arc the new member
  claims).  Objects already written stay where they are; lookups fall
  back to a member scan when the primary route misses, so growth
  never strands a sealed object (sealed lines are immutable and
  cannot migrate by design).  A background
  :meth:`FleetStore.migrate_unsealed` pass moves the *unsealed*
  remapped objects to their ring-correct members and, when no sealed
  object is stranded, switches exact O(1) routing back on.

Concurrency: every operation declares its *member footprint* and runs
under shard-grained locks (:class:`~repro.parallel.MemberLockSet`) —
object-grain calls lock the holding member, batch calls lock their
per-member groups in ascending index order, and whole-fleet passes
(``audit``/``format_devices``/``add_member``/``migrate_unsealed``)
take an exclusive mode that excludes everything.  Calls on disjoint
members therefore overlap on real cores while per-member results stay
byte-identical to a serialized run.

The per-member fan-out functions live at module level so the ``rpc``
executor can pickle them.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ConfigurationError, FileExistsError_, FileNotFoundError_
from ..fs.inode import FileType
from ..medium.medium import MediumConfig
from ..parallel import (
    FleetExecutor,
    HashRing,
    MemberFailure,
    MemberLockSet,
    WorkerWall,
    resolve_fleet_executor,
    shard_key,
)
from .policy import resolve_executor_name
from .store import (
    AuditReport,
    EvidenceExport,
    FormatReport,
    MemberVerdictRecord,
    ObjectInfo,
    SealReceipt,
    StoreConfig,
    StoreStatePatch,
    TamperEvidentStore,
    VerifyReport,
)


def fold_member_state(original: TamperEvidentStore, state: object) -> None:
    """Fold one member's post-pass state back into ``original``.

    The executor contract: a member task returns either the member
    itself (in-process dispatch — nothing to do), a
    :class:`StoreStatePatch` (read-only pass across a process
    boundary — applied in place), or a mutated snapshot (mutating
    pass across a process boundary — absorbed in place via
    :meth:`TamperEvidentStore.adopt_state` so caller-held references
    stay live).  One helper, shared by :meth:`FleetStore._fan_out` and
    the ``rpc`` executor's pinned-pass fold, so the absorption protocol
    cannot diverge between the in-host and remote dispatch paths.
    """
    if isinstance(state, StoreStatePatch):
        state.apply(original)
    elif state is not original:
        original.adopt_state(state)


def _executor_pin(executor: Union[None, str, FleetExecutor]
                  ) -> Union[None, str, FleetExecutor]:
    """A ``FleetStore`` executor pin, checked where it is given: a
    name other than ``serial``/``rpc`` fails here, not at the first
    pass."""
    if executor is None or isinstance(executor, FleetExecutor):
        return executor
    return resolve_executor_name(executor)[0]


def _require_store(member: object) -> TamperEvidentStore:
    """Fleet members are :class:`TamperEvidentStore` instances; a bare
    device joins as ``TamperEvidentStore.attach(device)``."""
    if not isinstance(member, TamperEvidentStore):
        raise TypeError(
            f"fleet members must be TamperEvidentStore instances (wrap a "
            f"bare device with TamperEvidentStore.attach(device)), got "
            f"{type(member).__name__}")
    return member


# ---------------------------------------------------------------------------
# Typed fleet responses


@dataclass(frozen=True)
class FleetEvidenceExport:
    """A rack-wide evidence bag: one sealed sub-bag per sharded member.

    Attributes:
        case: case name the exhibits were filed under.
        exports: per-member :class:`EvidenceExport` bags (members that
            received no exhibits produce none), member order.
        intact: every sub-bag verified intact.
    """

    case: str
    exports: Tuple[EvidenceExport, ...]
    intact: bool

    @property
    def items(self) -> Tuple:
        """All exhibit items across sub-bags."""
        return tuple(item for export in self.exports
                     for item in export.items)

    @property
    def reports(self) -> Tuple[VerifyReport, ...]:
        """All fresh verdicts across sub-bags."""
        return tuple(report for export in self.exports
                     for report in export.reports)


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :meth:`FleetStore.migrate_unsealed` pass.

    Attributes:
        examined: objects inspected across the fleet.
        moved: unsealed objects relocated to their ring-correct member.
        sealed_kept: sealed objects found off their current route and
            left in place (a sealed line is physically immovable — the
            lookup fallback keeps covering them).
        routing_exact: True when, after the pass, every object lives on
            its routed member — primary-route lookups are exact again
            (O(1), no fallback scans).
    """

    examined: int
    moved: int
    sealed_kept: int
    routing_exact: bool


@dataclass
class FleetOpStats:
    """How the last fleet-wide pass was dispatched (diagnostics).

    ``hosts`` names the remote workers an ``rpc`` pass fanned out to
    (empty for in-host executors); ``worker_walls`` carries the
    per-worker — for rpc, per-host — wall breakdown.  ``bytes_out`` /
    ``bytes_back`` record the wire payload per remote host: snapshot-
    sized on a cold (pinning) pass, descriptor-sized once pinned.
    ``failures`` holds the :class:`~repro.parallel.MemberFailure`
    records of a degraded rpc pass (members that folded nothing);
    ``retries`` / ``timeouts`` count failover re-dispatches and
    request-deadline expiries per remote host.
    """

    operation: str = ""
    executor: str = "serial"
    workers: int = 1
    wall_seconds: float = 0.0
    worker_walls: List[WorkerWall] = field(default_factory=list)
    hosts: Tuple[str, ...] = ()
    bytes_out: Dict[str, int] = field(default_factory=dict)
    bytes_back: Dict[str, int] = field(default_factory=dict)
    failures: List[MemberFailure] = field(default_factory=list)
    retries: Dict[str, int] = field(default_factory=dict)
    timeouts: Dict[str, int] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether the pass completed without some of its members."""
        return bool(self.failures)


# ---------------------------------------------------------------------------
# Per-member fan-out tasks (module level: the rpc executor pickles
# them by reference)


def _audit_member(store: TamperEvidentStore, deep: bool,
                  patch_return: bool = False) -> Tuple[AuditReport, object]:
    mark = StoreStatePatch.fs_meta_mark(store)
    report = store.audit(deep=deep)
    state = StoreStatePatch.capture(store, mark) if patch_return else store
    return report, state


def _seal_many_member(store: TamperEvidentStore, paths: Tuple[str, ...],
                      timestamp: Optional[int]
                      ) -> Tuple[List[SealReceipt], TamperEvidentStore]:
    return store.seal_many(paths, timestamp=timestamp), store


def _export_member(store: TamperEvidentStore, case: str,
                   exhibits: Dict[str, bytes],
                   timestamp: Optional[int]
                   ) -> Tuple[EvidenceExport, TamperEvidentStore]:
    return store.export_evidence(case, exhibits, timestamp=timestamp), store


def _format_member(store: TamperEvidentStore
                   ) -> Tuple[FormatReport, TamperEvidentStore]:
    return store.format_device(), store


class FleetStore:
    """Many tamper-evident stores behind one store-shaped front door.

    Args:
        members: the fleet — :class:`TamperEvidentStore` instances
            (a bare device joins as
            ``TamperEvidentStore.attach(device)``, device-grain).
        executor: fleet dispatch pin — ``"serial"``, ``"rpc"`` or a
            ready :class:`~repro.parallel.FleetExecutor`; None resolves
            through the lazy policy chain *at each fleet-wide call*.
        replicas: virtual nodes per member on the hash ring.

    Operations' member footprints: object-grain calls lock the holding
    member; ``seal_many`` / ``export_evidence`` lock their per-member
    groups in ascending index order; ``audit`` / ``format_devices`` /
    ``add_member`` / ``migrate_unsealed`` / ``capacity`` take the
    exclusive mode.
    """

    def __init__(self, members: Sequence[TamperEvidentStore], *,
                 executor: Union[None, str, FleetExecutor] = None,
                 replicas: int = 64) -> None:
        if not members:
            raise ConfigurationError("a FleetStore needs at least one member")
        self.members: List[TamperEvidentStore] = [
            _require_store(member) for member in members]
        self._executor = _executor_pin(executor)
        self._ring = HashRing([self._node_name(i)
                               for i in range(len(self.members))],
                              replicas=replicas)
        # ring topology is read on every route and mutated by
        # add_member; successors() is lazy, so walks materialise under
        # this mutex (never held together with member locks)
        self._ring_lock = threading.Lock()
        self._locks = MemberLockSet(len(self.members))
        self._archive_homes: Dict[str, int] = {}
        self._grown = False
        # dispatch stats are per handler thread: two concurrent passes
        # must each read their *own* degraded flag, not the other's
        self._last_op_local = threading.local()
        self._last_op_fallback = FleetOpStats()
        # optional evidence indexer (repro.search.EvidenceIndex shape,
        # duck-typed so the api layer never imports repro.search):
        # notified with payloads each op already computed — index
        # maintenance costs no extra fleet traffic
        self._indexer = None

    @property
    def last_op(self) -> FleetOpStats:
        """Dispatch stats of the calling thread's most recent fleet
        pass (falling back to the newest pass fleet-wide for threads
        that never dispatched one)."""
        return getattr(self._last_op_local, "value",
                       self._last_op_fallback)

    @last_op.setter
    def last_op(self, stats: FleetOpStats) -> None:
        self._last_op_local.value = stats
        self._last_op_fallback = stats

    def exclusive(self):
        """Context manager: hold the whole fleet exclusively (what
        ``audit``/``format_devices`` take internally) — for callers
        composing multi-call invariants, e.g. the gateway's
        ``history`` endpoint reading every member's log coherently."""
        return self._locks.exclusive()

    def attach_indexer(self, indexer) -> None:
        """Attach an evidence indexer (``repro.search.EvidenceIndex``
        or anything with its ``note_*`` hooks).  Every subsequent
        put/seal/delete/export/audit feeds the indexer the typed
        payloads the operation already produced; pass ``None`` to
        detach."""
        self._indexer = indexer

    @staticmethod
    def _node_name(index: int) -> str:
        return f"m{index}"

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(cls, n_members: int,
               config: Optional[StoreConfig] = None, *,
               seed: int = 2008,
               executor: Union[None, str, FleetExecutor] = None,
               replicas: int = 64,
               **overrides) -> "FleetStore":
        """Provision ``n_members`` fresh full stores.

        Each member gets a distinct medium seed (``seed + i``: every
        device is an independent physical sample); remaining keyword
        overrides are :class:`StoreConfig` fields, exactly as
        :meth:`TamperEvidentStore.create` takes them.
        """
        if n_members < 1:
            raise ConfigurationError("n_members must be >= 1")
        executor = _executor_pin(executor)
        base = config or StoreConfig()
        if overrides:
            base = dataclasses.replace(base, **overrides)
        members = []
        for i in range(n_members):
            medium_config = base.medium_config or MediumConfig()
            medium_config = dataclasses.replace(medium_config, seed=seed + i)
            members.append(TamperEvidentStore.create(
                dataclasses.replace(base, medium_config=medium_config)))
        return cls(members, executor=executor, replicas=replicas)

    # -- routing -----------------------------------------------------------------

    @property
    def member_count(self) -> int:
        return len(self.members)

    def route(self, path: str) -> int:
        """Member index the ring assigns ``path`` to (deterministic).

        Object routing walks the ring to the nearest *object-capable*
        (file-system-backed) member, so a mixed fleet with device-grain
        members still routes every path somewhere that can hold it —
        deterministically and rebalance-stably, like the primary arc.
        """
        with self._ring_lock:
            names = list(self._ring.successors(path))
        for name in names:
            index = int(name[1:])
            if self.members[index].fs is not None:
                return index
        raise ConfigurationError(
            "no object-capable member: every FleetStore member wraps a "
            "bare device (object operations need file-system-backed "
            "members, e.g. TamperEvidentStore.create(...))")

    def member_for(self, path: str) -> TamperEvidentStore:
        """The member store that owns ``path``."""
        return self.members[self.route(path)]

    def add_member(self, member: TamperEvidentStore) -> int:
        """Grow the fleet by one member; returns its index.

        Only ~1/(n+1) of the keyspace remaps to the newcomer (hash-ring
        arc transfer); everything else keeps routing where it already
        lives.  Objects stored under a remapped path remain readable
        through the lookup fallback.

        Growth is a whole-fleet exclusive operation: no shard-grained
        call observes a half-grown fleet (new member appended, lock
        and ring arc not yet).
        """
        _require_store(member)
        with self._locks.exclusive():
            index = len(self.members)
            self.members.append(member)
            self._locks.grow()
            with self._ring_lock:
                self._ring.add_node(self._node_name(index))
            self._grown = True  # lookups must fall back from now on
        return index

    @staticmethod
    def _member_local_roots(store: TamperEvidentStore) -> Tuple[str, ...]:
        """Subtrees that belong to the *member*, not the fleet keyspace.

        Evidence bags live where their member sealed them (exhibits
        route by ``case/name``, not by their storage path), and the
        self-securing instruction log chronicles its own member's
        instructions — neither is a ring-routed fleet object, so the
        rebalance pass must neither move them nor count them as
        stranded.
        """
        roots = [store.config.evidence_root]
        if store.audit_log is not None:
            roots.append(store.audit_log.path)
        return tuple(root.rstrip("/") for root in roots)

    @classmethod
    def _walk_objects(cls, store: TamperEvidentStore,
                      root: str = "/") -> List[str]:
        """Every *fleet-routed* regular-file path on one member, depth
        first (member-local subtrees pruned)."""
        fs = store.fs
        skip = cls._member_local_roots(store)
        paths: List[str] = []
        pending = [root]
        while pending:
            directory = pending.pop()
            prefix = directory.rstrip("/")
            for name in fs.listdir(directory):
                child = f"{prefix}/{name}"
                if child in skip:
                    continue
                if fs.stat(child).ftype is FileType.DIRECTORY:
                    pending.append(child)
                else:
                    paths.append(child)
        return paths

    @staticmethod
    def _ensure_parents(store: TamperEvidentStore, path: str) -> None:
        """Create the directory chain ``path`` needs on ``store``."""
        parts = path.strip("/").split("/")[:-1]
        prefix = ""
        for part in parts:
            prefix = f"{prefix}/{part}"
            try:
                store.fs.mkdir(prefix)
            except FileExistsError_:
                pass

    def migrate_unsealed(self) -> MigrationReport:
        """Background rebalance: restore exact routing after growth.

        :meth:`add_member` deliberately moves no data — only ~1/(n+1)
        of the keyspace remaps, and remapped objects stay readable
        through the lookup fallback.  This pass finishes the job: every
        *unsealed* object whose current member is no longer its ring
        route is copied to the routed member and unlinked from its old
        home.  Sealed objects are refused by construction — a sealed
        line is a physical property of its medium and cannot move — so
        they stay where they were sealed, covered by the fallback
        forever.  Member-local subtrees (evidence bags under the
        configured evidence root, instruction-log chunks) are not
        fleet-routed objects and are skipped entirely.

        When the pass ends with every object on its route, the fleet
        returns to exact O(1) routing: lookups stop scanning other
        members, writes route directly (the state a never-grown fleet
        is in).  One stranded sealed object keeps the fallback on.

        Idempotent; run it after each growth step (or batch several
        ``add_member`` calls and run it once).  Whole-fleet exclusive:
        objects must not move while shard-grained calls are probing.
        """
        with self._locks.exclusive():
            return self._migrate_unsealed_locked()

    def _migrate_unsealed_locked(self) -> MigrationReport:
        examined = moved = sealed_kept = 0
        # snapshot the walks first: an object moved to a later member
        # must not be examined a second time on arrival
        walks = [(index, store, self._walk_objects(store))
                 for index, store in enumerate(self.members)
                 if store.fs is not None]
        for index, store, paths in walks:
            for path in paths:
                examined += 1
                target = self.route(path)
                if target == index:
                    continue
                if store.info(path).sealed:
                    sealed_kept += 1
                    continue
                destination = self.members[target]
                self._ensure_parents(destination, path)
                destination.put(path, store.get(path))
                store.delete(path)
                moved += 1
        routing_exact = sealed_kept == 0
        if routing_exact:
            self._grown = False  # primary-route lookups are exact again
        return MigrationReport(examined=examined, moved=moved,
                               sealed_kept=sealed_kept,
                               routing_exact=routing_exact)

    def _locate(self, path: str) -> Tuple[int, TamperEvidentStore]:
        """Member actually holding ``path``: primary route first, then
        — only once the fleet has grown — the fallback scan (an object
        written before a rebalance may live off its current route; a
        never-grown fleet routes exactly, so no other member is ever
        read).  Caller must hold the member locks (or the exclusive
        mode); concurrent paths go through :meth:`_held_holder`."""
        primary = self.route(path)
        order = [primary]
        if self._grown:
            order += [i for i in range(len(self.members)) if i != primary]
        for index in order:
            store = self.members[index]
            if store.fs is None:
                continue
            try:
                store.info(path)
                return index, store
            except FileNotFoundError_:
                continue
        raise FileNotFoundError_(f"no fleet member holds {path!r}")

    # -- footprint locking -------------------------------------------------------

    def _acquire_holder(self, path: str) -> Tuple[int, TamperEvidentStore]:
        """The lock-step ``_locate`` walk: probe members in
        ``_locate``'s exact order, holding at most one member lock at
        any moment (deadlock-free regardless of probe order), and
        return with the found member's lock *held*.  Caller holds the
        shared gate and releases the member lock."""
        primary = self.route(path)
        order = [primary]
        if self._grown:
            order += [i for i in range(len(self.members)) if i != primary]
        for index in order:
            store = self.members[index]
            if store.fs is None:
                continue
            self._locks.acquire_member(index)
            try:
                store.info(path)
                return index, store
            except FileNotFoundError_:
                self._locks.release_member(index)
            except BaseException:
                self._locks.release_member(index)
                raise
        raise FileNotFoundError_(f"no fleet member holds {path!r}")

    @contextmanager
    def _held_holder(self, path: str
                     ) -> Iterator[Tuple[int, TamperEvidentStore]]:
        """Shared gate + the holding member's lock, for one read-grain
        operation on ``path``."""
        with self._locks.shared():
            index, store = self._acquire_holder(path)
            try:
                yield index, store
            finally:
                self._locks.release_member(index)

    @contextmanager
    def _held_write_target(self, path: str
                           ) -> Iterator[Tuple[int, TamperEvidentStore]]:
        """Shared gate + the lock of the member a write to ``path``
        must land on: wherever the object already lives (so a
        post-growth write never forks a second divergent copy off its
        pre-rebalance home), else the routed member.  On a never-grown
        fleet this is the routed member directly — no fallback
        probes."""
        with self._locks.shared():
            index: Optional[int] = None
            if self._grown:
                try:
                    index, _store = self._acquire_holder(path)
                except FileNotFoundError_:
                    index = None
            if index is None:
                index = self.route(path)
                self._locks.acquire_member(index)
            try:
                yield index, self.members[index]
            finally:
                self._locks.release_member(index)

    # -- dispatch ----------------------------------------------------------------

    def _fan_out(self, operation: str, member_indices: Sequence[int],
                 make_tasks) -> List:
        """Run ``make_tasks(patch_return)`` on the resolved executor,
        fold the returned member states back in (full snapshots are
        reinstalled, read-only :class:`StoreStatePatch` results are
        applied in place), record dispatch stats, and return the
        per-task payloads (task order)."""
        executor = resolve_fleet_executor(self._executor)
        tasks = make_tasks(executor.crosses_process)
        t0 = time.perf_counter()
        outcome = executor.run(tasks)
        wall = time.perf_counter() - t0
        payloads = []
        failures: List[MemberFailure] = []
        for index, result in zip(member_indices, outcome.results):
            if isinstance(result, MemberFailure):
                # degraded rpc pass: the member folded nothing — its
                # store is untouched and the failure record *is* the
                # payload, for the caller to surface.  Re-key the
                # record from task position to fleet member index
                # (the pass may cover a subset of members).
                failure = dataclasses.replace(result, index=index)
                failures.append(failure)
                payloads.append(failure)
                continue
            payload, state = result
            fold_member_state(self.members[index], state)
            payloads.append(payload)
        self.last_op = FleetOpStats(
            operation=operation, executor=executor.name,
            workers=outcome.workers, wall_seconds=wall,
            worker_walls=outcome.worker_walls, hosts=outcome.hosts,
            bytes_out=dict(outcome.bytes_out),
            bytes_back=dict(outcome.bytes_back),
            failures=failures,
            retries=dict(outcome.retries),
            timeouts=dict(outcome.timeouts))
        return payloads

    # -- object grain ------------------------------------------------------------

    def put(self, path: str, data: bytes = b"", *,
            overwrite: bool = False,
            make_parents: bool = False) -> ObjectInfo:
        """Store one object on its owning (or, when new, routed)
        member.  ``make_parents`` creates the directory chain on that
        member first, like :meth:`TamperEvidentStore.put`."""
        with self._held_write_target(path) as (index, store):
            info = store.put(path, data, overwrite=overwrite,
                             make_parents=make_parents)
        if self._indexer is not None:
            self._indexer.note_put(path, size=info.size, member=index)
        return info

    def get(self, path: str) -> bytes:
        """Read one object (fallback scan after rebalances)."""
        with self._held_holder(path) as (_index, store):
            return store.get(path)

    def delete(self, path: str) -> None:
        """Remove an unsealed object wherever it lives."""
        with self._held_holder(path) as (_index, store):
            store.delete(path)
        if self._indexer is not None:
            self._indexer.note_delete(path)

    def info(self, path: str) -> ObjectInfo:
        """Metadata of one object."""
        with self._held_holder(path) as (_index, store):
            return store.info(path)

    # -- the write-once operation -------------------------------------------------

    def seal(self, path: str, *,
             timestamp: Optional[int] = None) -> SealReceipt:
        """Seal one object on the member that holds it."""
        with self._held_holder(path) as (index, store):
            receipt = store.seal(path, timestamp=timestamp)
        if self._indexer is not None:
            self._indexer.note_seal(receipt, member=index)
        return receipt

    def put_sealed(self, path: str, data: bytes, *,
                   timestamp: Optional[int] = None) -> SealReceipt:
        """Store and immediately seal on the owning/routed member."""
        with self._held_write_target(path) as (index, store):
            receipt = store.put_sealed(path, data, timestamp=timestamp)
        if self._indexer is not None:
            self._indexer.note_put(path, size=len(data), member=index)
            self._indexer.note_seal(receipt, member=index)
        return receipt

    def seal_many(self, paths: Sequence[str], *,
                  timestamp: Optional[int] = None) -> List[SealReceipt]:
        """Seal a batch of objects, fleet-wide.

        Paths group by owning member and the per-member batches run on
        the resolved executor; receipts come back in input order.  In
        a degraded rpc pass (``on_failure="degrade"``) a failed
        member's paths carry its :class:`~repro.parallel.MemberFailure`
        record in place of a receipt — those objects are *not* sealed
        and can be resubmitted verbatim.

        Footprint: the per-member groups' locks, acquired in ascending
        member-index order once the grouping probes (lock-step, one
        member lock at a time) settle — two batches with reversed
        footprints sort identically and cannot deadlock.
        """
        with self._locks.shared():
            groups: Dict[int, List[str]] = {}
            for path in paths:
                # exact routing while the fleet has never grown — the
                # charged probe is only needed after a rebalance
                if not self._grown:
                    index = self.route(path)
                else:
                    index, _store = self._acquire_holder(path)
                    self._locks.release_member(index)
                groups.setdefault(index, []).append(path)
            member_indices = sorted(groups)
            order = self._locks.acquire_ascending(member_indices)
            try:
                payloads = self._fan_out(
                    "seal_many", member_indices, lambda _p: [
                        partial(_seal_many_member, self.members[i],
                                tuple(groups[i]), timestamp)
                        for i in member_indices])
            finally:
                self._locks.release_descending(order)
        by_path: Dict[str, SealReceipt] = {}
        for index, receipts in zip(member_indices, payloads):
            if isinstance(receipts, MemberFailure):
                for path in groups[index]:
                    by_path[path] = receipts
                continue
            for path, receipt in zip(groups[index], receipts):
                by_path[path] = receipt
                if self._indexer is not None:
                    self._indexer.note_seal(receipt, member=index)
        return [by_path[path] for path in paths]

    # -- verification -------------------------------------------------------------

    def verify(self, path: str) -> VerifyReport:
        """Verify one sealed object on the member that holds it."""
        with self._held_holder(path) as (_index, store):
            return store.verify(path)

    def audit(self, *, deep: bool = False) -> AuditReport:
        """Audit every member, fleet-wide, merged into one report.

        Per-member sweeps run on the resolved executor; line labels
        are prefixed ``m<i>:`` so a tampered verdict names the member
        it came from, and file-system findings merge the same way.  A
        member that failed out of a degraded rpc pass contributes an
        ``fs_errors`` entry instead of line verdicts — an audit that
        could not cover the whole fleet is *not* clean.

        Whole-fleet exclusive: the sweep must observe every member
        quiescent (and its verification draws advance member RNG
        streams, which must not interleave with shard-grained ops).
        """
        with self._locks.exclusive():
            member_indices = list(range(len(self.members)))
            payloads = self._fan_out(
                "audit", member_indices, lambda patch: [
                    partial(_audit_member, self.members[i], deep, patch)
                    for i in member_indices])
        merged = AuditReport(deep=deep)
        for index, report in zip(member_indices, payloads):
            tag = self._node_name(index)
            if isinstance(report, MemberFailure):
                merged.fs_errors.append(
                    f"{tag}: member audit failed after "
                    f"{report.attempts} attempt(s): "
                    f"{report.error_type}: {report.message}")
                continue
            # typed per-member verdicts keep the *member-local* report
            # (unprefixed label) so consumers never re-parse the
            # merged strings
            merged.member_records.extend(
                MemberVerdictRecord(member=index, report=r)
                for r in report.reports)
            merged.reports.extend(
                dataclasses.replace(
                    r, label=f"{tag}:{r.label}" if r.label is not None
                    else tag)
                for r in report.reports)
            merged.fs_errors.extend(f"{tag}: {e}" for e in report.fs_errors)
            merged.fs_warnings.extend(f"{tag}: {w}"
                                      for w in report.fs_warnings)
            merged.device_seconds += report.device_seconds
        if self._indexer is not None:
            self._indexer.note_audit(merged,
                                     failures=self.last_op.failures)
        return merged

    # -- forensics ----------------------------------------------------------------

    def export_evidence(self, case: str, exhibits: Mapping[str, bytes], *,
                        timestamp: Optional[int] = None
                        ) -> FleetEvidenceExport:
        """Seal ``exhibits`` as sharded evidence bags, one per member.

        Each exhibit routes by name (under the case's namespace) to a
        member, which seals its share as an ordinary
        :meth:`TamperEvidentStore.export_evidence` bag; the fleet
        export aggregates the sub-bags.

        Footprint: the receiving members' locks, ascending.
        """
        groups: Dict[int, Dict[str, bytes]] = {}
        for name, data in exhibits.items():
            index = self.route(f"{case}/{name}")
            groups.setdefault(index, {})[name] = data
        member_indices = sorted(groups)
        with self._locks.members(member_indices):
            payloads = self._fan_out(
                "export_evidence", member_indices, lambda _p: [
                    partial(_export_member, self.members[i], case,
                            groups[i], timestamp)
                    for i in member_indices])
        # a degraded pass yields MemberFailure payloads: their
        # exhibits were never bagged, so the fleet export is not
        # intact (the sub-bags that did seal remain individually
        # valid and are kept)
        if self._indexer is not None:
            for index, payload in zip(member_indices, payloads):
                if isinstance(payload, MemberFailure):
                    continue
                self._indexer.note_export(payload, member=index,
                                          exhibits=groups[index])
        exports = tuple(p for p in payloads
                        if not isinstance(p, MemberFailure))
        return FleetEvidenceExport(
            case=case, exports=exports,
            intact=len(exports) == len(payloads)
            and all(export.intact for export in exports))

    # -- content-addressed archive -------------------------------------------------

    def _archive_home(self, name: str) -> Optional[int]:
        """Member already holding an archive called ``name``, if any."""
        index = self._archive_homes.get(name)
        if index is not None:
            return index
        for i, member in enumerate(self.members):
            if name in member.archives:
                self._archive_homes[name] = i
                return i
        return None

    def archive(self, name: str, data: bytes, *, timestamp: int = 0):
        """Snapshot ``data`` on the member its *content score* routes
        to — Venti-style content addressing at rack scale.  The walk
        stops at the nearest member with an archive arena.

        Re-archiving an existing ``name`` stays on its current home
        (the name must resolve to one snapshot rack-wide; the member's
        content-addressed arena keeps both versions' blocks).

        Footprint: the home (or chosen) member's lock.
        """
        with self._locks.shared():
            existing = self._archive_home(name)
            if existing is not None:
                self._locks.acquire_member(existing)
                try:
                    return self.members[existing].archive(
                        name, data, timestamp=timestamp)
                finally:
                    self._locks.release_member(existing)
            with self._ring_lock:
                nodes = list(self._ring.successors(shard_key(data)))
            for node in nodes:
                index = int(node[1:])
                if self.members[index].venti is None:
                    continue
                self._locks.acquire_member(index)
                try:
                    receipt = self.members[index].archive(
                        name, data, timestamp=timestamp)
                    self._archive_homes[name] = index
                    return receipt
                finally:
                    self._locks.release_member(index)
            raise ConfigurationError(
                "no archive-capable member: create members with "
                "StoreConfig(archive_blocks=...)")

    def retrieve(self, name: str) -> bytes:
        """Read an archived snapshot back from its home member.

        Falls back to scanning member archives when this façade
        instance did not issue the snapshot itself (a fresh
        ``FleetStore`` over the same rack can still retrieve).
        """
        with self._locks.shared():
            index = self._archive_home(name)
            if index is None:
                raise ConfigurationError(
                    f"no fleet archive named {name!r}")
            self._locks.acquire_member(index)
            try:
                return self.members[index].retrieve(name)
            finally:
                self._locks.release_member(index)

    # -- device grain --------------------------------------------------------------

    def format_devices(self) -> List[Union[FormatReport, MemberFailure]]:
        """Run the format-time surface scan on every member
        (whole-fleet exclusive); reports come back in member order.
        In a degraded rpc pass (``on_failure="degrade"``) a failed
        member's slot carries its
        :class:`~repro.parallel.MemberFailure` record in place of a
        report — that device was *not* scanned.

        Device-grain fleets only: the scan erases whatever the medium
        holds, so a fleet with any file-system-backed member is refused
        with :class:`~repro.errors.ConfigurationError` before a single
        member is touched (fs-backed members were scanned by
        ``create``)."""
        with self._locks.exclusive():
            mounted = [self._node_name(i)
                       for i, store in enumerate(self.members)
                       if store.fs is not None]
            if mounted:
                raise ConfigurationError(
                    f"format_devices() would erase the mounted file "
                    f"systems of {', '.join(mounted)}: the format scan "
                    f"runs on device-grain members only (fs-backed "
                    f"members were scanned by create())")
            member_indices = list(range(len(self.members)))
            return self._fan_out(
                "format_devices", member_indices, lambda _p: [
                    partial(_format_member, self.members[i])
                    for i in member_indices])

    def capacity(self) -> Dict[str, int]:
        """Summed capacity accounting across the whole fleet (taken
        under the exclusive mode so the totals are one coherent
        snapshot)."""
        with self._locks.exclusive():
            totals: Dict[str, int] = {}
            for store in self.members:
                for key, value in store.capacity().items():
                    totals[key] = totals.get(key, 0) + value
            return totals

    def describe(self) -> Dict[str, object]:
        """Inspectable summary: members, routing, last dispatch."""
        return {
            "members": len(self.members),
            "ring_nodes": self._ring.nodes,
            "replicas": self._ring.replicas,
            "executor_pin": (self._executor.name
                             if isinstance(self._executor, FleetExecutor)
                             else self._executor),
            "last_op": self.last_op.operation or None,
            "last_executor": self.last_op.executor,
            "last_workers": self.last_op.workers,
            "total_blocks": sum(s.device.total_blocks
                                for s in self.members),
            "sealed_lines": sum(len(s.device.heated_lines)
                                for s in self.members),
        }
