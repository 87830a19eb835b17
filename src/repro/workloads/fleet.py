"""Fleet-scale batch scheduling over many tamper-evident stores.

The ROADMAP's north star is fleet-scale throughput: a provisioning or
compliance service does not format and audit one device, it runs whole
racks of them.  A :class:`FleetScheduler` drives four passes over every
member of a fleet —

* :meth:`~FleetScheduler.format_fleet` — the vectorized format-time
  defect scan;
* :meth:`~FleetScheduler.seal_fleet` — provision + heat lines on every
  device (the write-once bulk load);
* :meth:`~FleetScheduler.audit_fleet` — the batched line-verification
  sweep (the compliance hot path);
* :meth:`~FleetScheduler.fsck_fleet` — the deep consistency pass
  (file-system fsck where a member has one, device-registry
  verification otherwise)

— and dispatches them on a named *fleet executor*
(:mod:`repro.parallel`: ``serial`` / ``thread`` / ``process`` /
``rpc`` — the last shipping members to worker daemons on other
machines, see :mod:`repro.parallel.remote`),
resolved lazily through the execution-policy chain at every pass
(explicit constructor pin > ``with repro.engine(executor=...)`` >
installed policy > ``REPRO_FLEET_EXECUTOR`` read at dispatch time).
Per-member results are byte-identical across executors: each member
owns its RNG, the thread executor propagates the ambient policy
context, and the process executor ships members to workers as compact
snapshots and reinstalls the mutated state.

The :class:`FleetReport` aggregates throughput both in simulator
wall-clock (blocks/s of host time, with the per-worker wall breakdown)
and in simulated device time — including
:attr:`~FleetReport.simulated_makespan_seconds`, the rack's completion
time when each worker's members run concurrently, which is what a
parallel rack actually buys.

Fleet members are :class:`~repro.api.store.TamperEvidentStore`
instances; passing bare :class:`~repro.device.sero.SERODevice` objects
still works (they are wrapped in device-grain stores) but is
deprecated — the shared :func:`repro.api.fleet.coerce_member` handles
both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..api.fleet import coerce_member, fold_member_state
from ..api.store import StoreStatePatch, TamperEvidentStore
from ..device.sero import BLOCK_SIZE, DeviceConfig, SERODevice
from ..errors import ConfigurationError
from ..units import is_power_of_two
from ..device.timing import TimingModel
from ..medium.medium import MediumConfig
from ..parallel import (FleetExecutor, MemberFailure, WorkerWall,
                        resolve_fleet_executor)


@dataclass
class DeviceReport:
    """Per-store outcome of one fleet pass.

    Attributes:
        device_index: position of the store in the fleet.
        blocks: physical blocks the pass covered.
        bad_blocks: blocks the format scan marked bad.
        fragile_blocks: blocks unusable as line heads.
        lines_sealed: lines the seal pass heated.
        line_hashes: hashes of the lines sealed by the pass (seal
            passes only; the byte-level fingerprint equivalence tests
            compare across executors).
        lines_verified: sealed lines audited.
        intact_lines: lines whose hash verified INTACT.
        tampered_lines: lines with tamper evidence.
        fs_errors: consistency errors found by a fsck pass.
        fs_warnings: consistency warnings found by a fsck pass.
        device_seconds: simulated device time consumed by the pass.
        worker: executor worker that ran this member's task.
    """

    device_index: int
    blocks: int
    bad_blocks: int = 0
    fragile_blocks: int = 0
    lines_sealed: int = 0
    line_hashes: Tuple[bytes, ...] = ()
    lines_verified: int = 0
    intact_lines: int = 0
    tampered_lines: int = 0
    fs_errors: int = 0
    fs_warnings: int = 0
    device_seconds: float = 0.0
    worker: str = "serial-0"

    def fingerprint(self) -> Tuple:
        """The executor-invariant content of this report: everything
        except which worker happened to run it.  Byte-identical across
        ``serial``/``thread``/``process`` dispatch."""
        return (self.device_index, self.blocks, self.bad_blocks,
                self.fragile_blocks, self.lines_sealed, self.line_hashes,
                self.lines_verified, self.intact_lines,
                self.tampered_lines, self.fs_errors, self.fs_warnings,
                self.device_seconds)


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet-wide pass.

    Attributes:
        operation: ``"format"``, ``"seal"``, ``"audit"`` or ``"fsck"``.
        devices: per-store breakdown.
        wall_seconds: simulator wall-clock for the whole pass.
        executor: name of the executor that dispatched the pass.
        workers: workers the executor actually used.
        worker_walls: per-worker host wall-clock breakdown (for the
            ``rpc`` executor one entry per remote host, labelled
            ``rpc-host:port`` — the per-host wall an operator reads
            when one rack node drags the pass).
        hosts: remote worker addresses the pass dispatched to (empty
            for in-host executors).
        bytes_out: wire payload bytes sent per remote host this pass
            (empty for in-host executors) — snapshot-sized on a
            cold (pinning) pass, descriptor-sized on a steady one.
        bytes_back: wire payload bytes received per remote host.
        failures: members the pass could not complete, as typed
            :class:`~repro.parallel.MemberFailure` records — non-empty
            only under the rpc executor's ``on_failure="degrade"``
            mode.  A failed member folded *nothing*: its store is
            exactly as the pass found it, and :attr:`devices` simply
            has no entry for it.
        retries: failover re-dispatches charged per remote host (the
            host that *failed*, not the one that recovered the work).
        timeouts: request deadline expiries per remote host.
    """

    operation: str
    devices: List[DeviceReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    executor: str = "serial"
    workers: int = 1
    worker_walls: List[WorkerWall] = field(default_factory=list)
    hosts: Tuple[str, ...] = ()
    bytes_out: Dict[str, int] = field(default_factory=dict)
    bytes_back: Dict[str, int] = field(default_factory=dict)
    failures: List["MemberFailure"] = field(default_factory=list)
    retries: Dict[str, int] = field(default_factory=dict)
    timeouts: Dict[str, int] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether any member failed out of the pass."""
        return bool(self.failures)

    @property
    def device_count(self) -> int:
        """Stores covered by the pass."""
        return len(self.devices)

    @property
    def blocks_processed(self) -> int:
        """Total blocks covered by the pass."""
        return sum(d.blocks for d in self.devices)

    @property
    def blocks_per_second(self) -> float:
        """Aggregate simulator throughput [blocks/s of wall time].

        A pass too fast for the clock to resolve reports ``0.0``
        (unmeasurable), never ``inf``.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.blocks_processed / self.wall_seconds

    @property
    def lines_sealed(self) -> int:
        """Lines heated across the fleet (seal passes)."""
        return sum(d.lines_sealed for d in self.devices)

    @property
    def lines_verified(self) -> int:
        """Sealed lines audited across the fleet."""
        return sum(d.lines_verified for d in self.devices)

    @property
    def intact_lines(self) -> int:
        """Fleet-wide count of INTACT line verdicts."""
        return sum(d.intact_lines for d in self.devices)

    @property
    def tampered_lines(self) -> int:
        """Fleet-wide count of tamper-evident line verdicts."""
        return sum(d.tampered_lines for d in self.devices)

    @property
    def fs_errors(self) -> int:
        """Fleet-wide consistency errors (fsck passes)."""
        return sum(d.fs_errors for d in self.devices)

    @property
    def device_seconds(self) -> float:
        """Total simulated device time consumed by the pass."""
        return sum(d.device_seconds for d in self.devices)

    @property
    def simulated_makespan_seconds(self) -> float:
        """Simulated completion time of the pass as dispatched.

        Each worker drives its members sequentially while workers run
        concurrently, so the rack finishes when its slowest worker
        does: the max over workers of their summed device time.  For
        the serial executor this equals :attr:`device_seconds`; for a
        balanced parallel dispatch it approaches ``device_seconds /
        workers`` — the quantity a sharded rack actually improves.
        """
        per_worker: Dict[str, float] = {}
        for dev in self.devices:
            per_worker[dev.worker] = \
                per_worker.get(dev.worker, 0.0) + dev.device_seconds
        return max(per_worker.values(), default=0.0)

    def fingerprints(self) -> List[Tuple]:
        """Executor-invariant per-device content, fleet order."""
        return [d.fingerprint() for d in self.devices]


# ---------------------------------------------------------------------------
# Per-member pass tasks.  Module level (the process executor pickles
# them by reference); each returns ``(DeviceReport, state)`` where
# ``state`` is either the member store itself (in-process dispatch) or
# — for read-only passes crossing a process boundary — a compact
# :class:`~repro.api.store.StoreStatePatch`, so a worker never ships
# unchanged medium arrays home.


def _member_state(store: TamperEvidentStore, patch_return: bool):
    return StoreStatePatch.capture(store) if patch_return else store


def _format_member(index: int, store: TamperEvidentStore
                   ) -> Tuple[DeviceReport, TamperEvidentStore]:
    scan = store.format_device()
    return DeviceReport(
        device_index=index, blocks=scan.blocks,
        bad_blocks=scan.bad_blocks, fragile_blocks=scan.fragile_blocks,
        device_seconds=scan.device_seconds), store


def _audit_member(index: int, store: TamperEvidentStore,
                  patch_return: bool = False
                  ) -> Tuple[DeviceReport, object]:
    audit = store.audit()
    return DeviceReport(
        device_index=index, blocks=store.device.total_blocks,
        lines_verified=audit.lines_verified,
        intact_lines=audit.intact_count,
        tampered_lines=len(audit.tampered),
        device_seconds=audit.device_seconds), \
        _member_state(store, patch_return)


def _seal_member(index: int, store: TamperEvidentStore,
                 lines_per_device: int, line_blocks: int,
                 payload: bytes, timestamp: int
                 ) -> Tuple[DeviceReport, TamperEvidentStore]:
    device = store.device
    before = device.account.elapsed
    hashes: List[bytes] = []
    start = 0
    while len(hashes) < lines_per_device and \
            start + line_blocks <= device.total_blocks:
        span = range(start, start + line_blocks)
        usable = (start not in device.fragile_blocks
                  and not any(pba in device.bad_blocks for pba in span)
                  and not any(device.is_block_heated(pba) for pba in span))
        if usable:
            for pba in span[1:]:
                device.write_block(pba, payload)
            record = device.heat_line(start, line_blocks,
                                      timestamp=timestamp)
            hashes.append(record.line_hash)
        start += line_blocks
    return DeviceReport(
        device_index=index, blocks=len(hashes) * line_blocks,
        lines_sealed=len(hashes), line_hashes=tuple(hashes),
        device_seconds=device.account.elapsed - before), store


def _fsck_member(index: int, store: TamperEvidentStore,
                 patch_return: bool = False
                 ) -> Tuple[DeviceReport, object]:
    device = store.device
    before = device.account.elapsed
    if store.fs is not None:
        from ..fs.fsck import fsck

        fs_report = fsck(store.fs, verify_lines=True)
        results = list(fs_report.heated_verifications.values())
        errors, warnings_ = len(fs_report.errors), len(fs_report.warnings)
    else:
        # device-grain member: verify the line registry itself
        results = device.verify_all()
        errors = sum(1 for r in results if r.tamper_evident)
        warnings_ = 0
    intact = sum(1 for r in results if not r.tamper_evident)
    return DeviceReport(
        device_index=index, blocks=device.total_blocks,
        lines_verified=len(results), intact_lines=intact,
        tampered_lines=sum(1 for r in results if r.tamper_evident),
        fs_errors=errors, fs_warnings=warnings_,
        device_seconds=device.account.elapsed - before), \
        _member_state(store, patch_return)


#: Deterministic default payload for seal passes (any 512-byte
#: pattern works; the hash binds it to each block's address).
_SEAL_PAYLOAD = bytes(range(256)) * (BLOCK_SIZE // 256)


class FleetScheduler:
    """Formats, seals and audits a fleet of tamper-evident stores.

    Args:
        members: the fleet — :class:`TamperEvidentStore` instances
            (bare :class:`SERODevice` members are wrapped, with a
            :class:`DeprecationWarning`).  See :meth:`build` for a
            convenience constructor with per-device seeds.
        executor: fleet dispatch pin — a registered executor name or a
            ready :class:`~repro.parallel.FleetExecutor` instance;
            None resolves through the lazy policy chain *at each
            pass*, so exporting ``REPRO_FLEET_EXECUTOR`` after the
            scheduler is built still takes effect.
        max_workers: worker bound for pool executors (None resolves
            through the chain; default one per CPU core).
    """

    def __init__(self, members: Sequence[Union[TamperEvidentStore,
                                               SERODevice]], *,
                 executor: Union[None, str, FleetExecutor] = None,
                 max_workers: Optional[int] = None) -> None:
        self.stores: List[TamperEvidentStore] = []
        for member in members:  # plain loop: the deprecation warning
            # must attribute to the caller on every Python version
            self.stores.append(
                coerce_member(member, owner="FleetScheduler"))
        self._executor = executor
        self._max_workers = max_workers

    @property
    def devices(self) -> List[SERODevice]:
        """The underlying devices, fleet order."""
        return [store.device for store in self.stores]

    @classmethod
    def build(cls, n_devices: int, blocks_per_device: int,
              switching_sigma: float = 0.0, seed: int = 2008,
              timing: Optional[TimingModel] = None,
              config: Optional[DeviceConfig] = None,
              executor: Union[None, str, FleetExecutor] = None,
              max_workers: Optional[int] = None) -> "FleetScheduler":
        """Provision ``n_devices`` fresh device-grain stores with
        distinct media seeds (each device is an independent physical
        sample)."""
        stores = []
        for i in range(n_devices):
            medium_config = MediumConfig(switching_sigma=switching_sigma,
                                         seed=seed + i)
            device = SERODevice.create(
                blocks_per_device, medium_config=medium_config,
                timing=timing, config=config)
            stores.append(TamperEvidentStore.attach(device))
        return cls(stores, executor=executor, max_workers=max_workers)

    # -- dispatch ---------------------------------------------------------------

    def _run_pass(self, operation: str, make_tasks) -> FleetReport:
        """Dispatch one fleet pass on the resolved executor and fold
        the outcome into a :class:`FleetReport`.

        ``make_tasks(patch_return)`` builds the member tasks;
        ``patch_return`` is True for executors whose results cross a
        process boundary, letting read-only passes return compact
        state patches instead of whole member snapshots.
        """
        executor = resolve_fleet_executor(self._executor, self._max_workers)
        tasks = make_tasks(executor.crosses_process)
        report = FleetReport(operation=operation, executor=executor.name)
        t0 = time.perf_counter()
        outcome = executor.run(tasks)
        report.wall_seconds = time.perf_counter() - t0
        for i, (result, worker) in enumerate(
                zip(outcome.results, outcome.assignments)):
            if isinstance(result, MemberFailure):
                # degraded pass: this member folded nothing — its
                # store is untouched and the report carries the typed
                # failure instead of a device entry
                report.failures.append(result)
                continue
            device_report, state = result
            fold_member_state(self.stores[i], state)
            device_report.worker = worker
            report.devices.append(device_report)
        report.workers = outcome.workers
        report.worker_walls = outcome.worker_walls
        report.hosts = outcome.hosts
        report.bytes_out = dict(outcome.bytes_out)
        report.bytes_back = dict(outcome.bytes_back)
        report.retries = dict(outcome.retries)
        report.timeouts = dict(outcome.timeouts)
        return report

    # -- passes ------------------------------------------------------------------

    def format_fleet(self) -> FleetReport:
        """Run the format-time surface scan on every store."""
        return self._run_pass("format", lambda _patch: [
            partial(_format_member, i, store)
            for i, store in enumerate(self.stores)])

    def seal_fleet(self, lines_per_device: int = 1, line_blocks: int = 2,
                   payload: Optional[bytes] = None,
                   timestamp: int = 0) -> FleetReport:
        """Provision and heat lines across the fleet (bulk load).

        Each member writes ``payload`` into the data blocks of up to
        ``lines_per_device`` aligned, defect-free, unheated lines of
        ``line_blocks`` blocks and heats them — the rack-provisioning
        idiom that turns fresh devices into sealed evidence carriers.
        The per-device :attr:`DeviceReport.line_hashes` record the
        sealed content fingerprints.
        """
        if payload is None:
            payload = _SEAL_PAYLOAD
        if len(payload) != BLOCK_SIZE:
            raise ValueError(f"seal payload must be {BLOCK_SIZE} bytes")
        if line_blocks < 2 or not is_power_of_two(line_blocks):
            raise ValueError(
                f"line_blocks must be a power of two >= 2, got "
                f"{line_blocks}")  # fail before any device is written
        fs_members = [i for i, store in enumerate(self.stores)
                      if store.fs is not None]
        if fs_members:
            raise ConfigurationError(
                "seal_fleet provisions device-grain members by writing "
                f"raw blocks, but member(s) {fs_members} carry a file "
                "system whose superblock/checkpoint a raw seal would "
                "destroy; seal their objects through the store surface "
                "instead (seal/seal_many, or FleetStore.seal_many)")
        return self._run_pass("seal", lambda _patch: [
            partial(_seal_member, i, store, lines_per_device, line_blocks,
                    payload, timestamp)
            for i, store in enumerate(self.stores)])

    def audit_fleet(self) -> FleetReport:
        """Audit every store: each runs its batched
        :meth:`~repro.api.store.TamperEvidentStore.audit` sweep
        (one bulk ``verify_lines`` pass per device).  Under a
        process executor each worker sends home a ~1 kB state patch,
        not the member snapshot — an audit never writes the medium."""
        return self._run_pass("audit", lambda patch: [
            partial(_audit_member, i, store, patch)
            for i, store in enumerate(self.stores)])

    def fsck_fleet(self) -> FleetReport:
        """Deep-check every store: file-system fsck (imap, block
        ownership, directory tree, line verification) where a member
        has a file system, device-registry verification otherwise."""
        return self._run_pass("fsck", lambda patch: [
            partial(_fsck_member, i, store, patch)
            for i, store in enumerate(self.stores)])
