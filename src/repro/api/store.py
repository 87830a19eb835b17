"""The :class:`TamperEvidentStore` façade — one door into the stack.

The paper sells an end-to-end tamper-evident storage *service*:
device, file system and integrity layers working as one.  This module
is that service's API.  One object drives a :class:`SERODevice`, a
:class:`SeroFS`, and (optionally) a Venti archive arena, a fossilised
receipt index and a self-securing instruction log, through typed
request/response objects:

* :meth:`~TamperEvidentStore.put` / :meth:`~TamperEvidentStore.get` —
  ordinary WMRM objects (:class:`ObjectInfo`);
* :meth:`~TamperEvidentStore.seal` /
  :meth:`~TamperEvidentStore.seal_many` — the write-once heat
  operation (:class:`SealReceipt`);
* :meth:`~TamperEvidentStore.verify` /
  :meth:`~TamperEvidentStore.audit` — tamper-evidence checks
  (:class:`VerifyReport`, :class:`AuditReport`);
* :meth:`~TamperEvidentStore.export_evidence` — forensic evidence
  bags (:class:`EvidenceExport`);
* :meth:`~TamperEvidentStore.archive` /
  :meth:`~TamperEvidentStore.retrieve` — content-addressed hash-tree
  snapshots with sealed roots (:class:`ArchiveReceipt`).

The façade's native grain is the batched fast path: ``audit`` runs one
bulk :meth:`~repro.device.sero.SERODevice.verify_lines` sweep (shared
erb gather and retry waves across every sealed line), ``seal_many``
drives each line's reads/writes through the span-run engines.  The
paper's per-dot protocol is the oracle those engines are tested
against; a store that runs it is built by explicit argument only,
``create(device_config=DeviceConfig(span_engine=False))``.

A store can also wrap a bare device (:meth:`TamperEvidentStore.attach`
with no file system) — the device-grain operations
(``format_device``/``audit``/``verify_line``) still work, which is how
a :class:`~repro.api.fleet.FleetStore` formats and audits whole racks
of bare devices.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..device.sero import (
    DeviceConfig,
    DeviceStatePatch,
    LineRecord,
    SERODevice,
    VerificationResult,
    VerifyStatus,
)
from ..device.timing import TimingModel
from ..errors import (
    ConfigurationError,
    FileExistsError_,
    FileNotFoundError_,
    FossilSlotError,
    IntegrityError,
    ReadError,
)
from ..fs.lfs import META_FIELDS, FileStat, FSConfig, MetaDelta, SeroFS
from ..integrity.evidence import EvidenceBag, EvidenceItem
from ..integrity.fossil import FossilizedIndex
from ..integrity.selfsec import AuditLog
from ..integrity.venti import VentiStore
from ..medium.medium import MediumConfig, MediumDelta


# ---------------------------------------------------------------------------
# Typed request/response objects


@dataclass(frozen=True)
class StoreConfig:
    """Everything needed to provision a :class:`TamperEvidentStore`.

    Attributes:
        total_blocks: size of the primary (file system) device.
        format_scan: run the format-time defect scan before building
            the file system (populates the bad-block map, as Section 3
            requires before any line may be heated).
        archive_blocks: Venti arena size on a dedicated archive
            device; 0 disables :meth:`TamperEvidentStore.archive`.
        fossil_blocks: fossilised-index arena (same archive device);
            when > 0 every seal receipt's line hash is inserted, giving
            a trustworthy non-alterable catalogue of seals.  Must be
            used with an even ``archive_blocks``.
        audit_log: keep a self-securing instruction log (one record
            per mutating façade call, incrementally heated).
        audit_rotate_bytes: log chunk size before it is sealed.
        evidence_root: directory that holds evidence bags.
        medium_config / device_config / fs_config / timing: pass-through
            knobs for the underlying layers.
        blocks_per_row: physical geometry of the primary device.
    """

    total_blocks: int = 512
    format_scan: bool = True
    archive_blocks: int = 0
    fossil_blocks: int = 0
    audit_log: bool = False
    audit_rotate_bytes: int = 4096
    evidence_root: str = "/evidence"
    medium_config: Optional[MediumConfig] = None
    device_config: Optional[DeviceConfig] = None
    fs_config: Optional[FSConfig] = None
    timing: Optional[TimingModel] = None
    blocks_per_row: int = 8

    def __post_init__(self) -> None:
        if self.fossil_blocks and self.archive_blocks % 2:
            raise ConfigurationError(
                "fossil arena needs an even archive_blocks to start on")


@dataclass(frozen=True)
class ObjectInfo:
    """Metadata of one stored object (the façade's stat)."""

    path: str
    ino: int
    size: int
    sealed: bool
    line_start: Optional[int]
    mtime: int

    @classmethod
    def from_stat(cls, stat: FileStat) -> "ObjectInfo":
        return cls(path=stat.path, ino=stat.ino, size=stat.size,
                   sealed=stat.heated, line_start=stat.line_start,
                   mtime=stat.mtime)


@dataclass(frozen=True)
class SealReceipt:
    """Proof of one completed write-once seal."""

    path: str
    line_start: int
    n_blocks: int
    line_hash: bytes
    timestamp: int

    @classmethod
    def from_record(cls, path: str, record: LineRecord) -> "SealReceipt":
        return cls(path=path, line_start=record.start,
                   n_blocks=record.n_blocks, line_hash=record.line_hash,
                   timestamp=record.timestamp)


@dataclass(frozen=True)
class VerifyReport:
    """One line's verification verdict, labelled for humans."""

    status: VerifyStatus
    line_start: int
    tamper_evident: bool
    label: Optional[str] = None
    stored_hash: Optional[bytes] = None
    computed_hash: Optional[bytes] = None
    tampered_cells: Tuple[int, ...] = ()

    @classmethod
    def from_result(cls, result: VerificationResult,
                    label: Optional[str] = None) -> "VerifyReport":
        return cls(status=result.status, line_start=result.start,
                   tamper_evident=result.tamper_evident, label=label,
                   stored_hash=result.stored_hash,
                   computed_hash=result.computed_hash,
                   tampered_cells=tuple(result.tampered_cells))

    @property
    def intact(self) -> bool:
        return self.status is VerifyStatus.INTACT


@dataclass(frozen=True)
class MemberVerdictRecord:
    """One fleet member's verdict on one sealed line, typed.

    A fleet audit merges every member's reports into one
    :class:`AuditReport` with ``m<i>:``-prefixed labels; these records
    keep the member index and the *member-local* report (unprefixed
    label, member-local line numbering) so consumers — the evidence
    index in particular — get typed verdicts instead of re-parsing
    report strings.
    """

    member: int
    report: VerifyReport


@dataclass
class AuditReport:
    """Outcome of a whole-store audit sweep.

    ``reports`` covers every sealed line of the primary device (and of
    the archive device when one exists), produced by the batched
    ``verify_lines`` engine; ``fs_errors``/``fs_warnings`` are filled
    by a ``deep`` audit's file-system consistency pass.  Fleet audits
    additionally fill ``member_records`` with each member's typed
    per-line verdicts (single-store audits leave it empty).
    """

    reports: List[VerifyReport] = field(default_factory=list)
    fs_errors: List[str] = field(default_factory=list)
    fs_warnings: List[str] = field(default_factory=list)
    device_seconds: float = 0.0
    deep: bool = False
    member_records: List[MemberVerdictRecord] = field(
        default_factory=list)

    def __iter__(self) -> Iterator[VerifyReport]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def lines_verified(self) -> int:
        return len(self.reports)

    @property
    def intact_count(self) -> int:
        return sum(1 for r in self.reports if r.intact)

    @property
    def tampered(self) -> List[VerifyReport]:
        """Reports that constitute evidence of tampering."""
        return [r for r in self.reports if r.tamper_evident]

    @property
    def clean(self) -> bool:
        """No tamper evidence and no consistency errors."""
        return not self.tampered and not self.fs_errors


@dataclass(frozen=True)
class FormatReport:
    """Outcome of the format-time surface scan."""

    blocks: int
    bad_blocks: int
    fragile_blocks: int
    device_seconds: float


@dataclass(frozen=True)
class ArchiveReceipt:
    """Proof of one content-addressed archive snapshot."""

    name: str
    root_score: bytes
    bytes_archived: int
    arena_blocks_used: int


@dataclass(frozen=True)
class EvidenceExport:
    """A sealed evidence bag: exhibits, manifest and fresh verdicts."""

    case: str
    directory: str
    items: Tuple[EvidenceItem, ...]
    manifest: EvidenceItem
    intact: bool
    reports: Tuple[VerifyReport, ...]


def _roles(store: "TamperEvidentStore"
           ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """``(moved, named)``: the objects of ``store``'s graph whose state
    a patch moves, and those it only points at, by role.  Both keep
    their identity on the receiving side, so references a caller holds
    (the store, ``.device``, ``.fs``, ...) stay live.  The named ones
    are the medium (its arrays travel as a block delta, its RNG,
    counters and epoch in the :class:`DeviceStatePatch`), the
    stateless bit operations over it, and the immutable configuration,
    geometry and timing model."""
    moved: Dict[str, object] = {
        "store": store, "fs": store.fs, "venti": store.venti,
        "fossil": store.fossil, "audit_log": store.audit_log}
    named: Dict[str, object] = {"store.config": store.config}
    for role in ("device", "archive_device"):
        device = getattr(store, role)
        if device is not None:
            moved.update({role: device, f"{role}.account": device.account,
                          f"{role}.scanner": device.scanner})
            named.update({f"{role}.medium": device.medium,
                          f"{role}.bitops": device.bitops,
                          f"{role}.geometry": device.geometry,
                          f"{role}.timing": device.timing})
    return {role: obj for role, obj in moved.items()
            if obj is not None}, named


def _anchor(role: str) -> object:
    """Stands for the receiving store's object in a pickled graph;
    only :class:`_GraphUnpickler` resolves it."""
    raise pickle.UnpicklingError(
        f"a store patch refers to the {role!r} of the store it is "
        "applied to; only StoreStatePatch.apply resolves it")


class _GraphPickler(pickle.Pickler):
    """Pickles the moved objects' state, writing each anchored object
    it meets (at any depth) as a reference to its role."""

    def __init__(self, file: io.BytesIO, anchors: Mapping[str, object]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._roles = {id(obj): role for role, obj in anchors.items()}

    def reducer_override(self, obj: object):
        role = self._roles.get(id(obj))
        if role is None:
            return NotImplemented
        return _anchor, (role,)


class _GraphUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, anchors: Mapping[str, object]):
        super().__init__(file)
        self._anchors = anchors

    def find_class(self, module: str, name: str):
        if module == __name__ and name == _anchor.__name__:
            return self._anchors.__getitem__
        return super().find_class(module, name)


@dataclass
class StoreStatePatch:
    """What a pass changed on a store, captured portably.

    The one form member state takes across the rpc boundary, in both
    directions, once a worker holds a pin: a ``run`` request carries
    the patch the caller's store made since the pin was current, and
    every reply carries the patch its task made.  Applied to a store
    equal to this one at its last sync point (a pin, a cut, an apply)
    it leaves that store equal to the one it was cut from, byte for
    byte, and every object a caller holds keeps its identity.

    * ``device`` / ``archive_device`` — one
      :class:`~repro.device.sero.DeviceStatePatch` per device: the
      medium's RNG, counters and mutation epoch, the cost account and
      the sled.
    * ``medium`` / ``archive_medium`` — the blocks each medium changed
      (:meth:`~repro.medium.medium.PatternedMedium.cut_delta`).
    * ``meta`` — the file system's metadata cache entries that changed
      since the last sync point, and the ones it dropped
      (:meth:`~repro.fs.lfs.SeroFS.cut_meta`); None when none did.
    * ``graph`` — the state of every other moved object (the façade,
      devices, accounts, scanners, file system, arenas and log),
      pickled with each anchored object as a reference to its role.  A
      field added to any of those layers travels without being listed
      anywhere.

    :meth:`cut` fills all of them.  :meth:`capture` takes the cheap
    form a read-only pass (an audit, which leaves the medium as it
    found it) needs: the device patches and ``meta``, so the caller's
    next lookup reads exactly the blocks the worker's would (a deep
    audit walks the tree; the steady pass that found everything cached
    carries no entries).  The patch's own pickled form deflates the
    graph and the cache entries as one stream, so the sending and
    receiving threads pay that, not the fold.
    """

    device: "DeviceStatePatch"
    archive_device: Optional["DeviceStatePatch"] = None
    meta: Optional[MetaDelta] = None
    medium: Optional[MediumDelta] = None
    archive_medium: Optional[MediumDelta] = None
    graph: Optional[bytes] = None

    @classmethod
    def capture(cls, store: "TamperEvidentStore") -> "StoreStatePatch":
        """The read-only-pass form; it moves only the cache's sync
        point."""
        return cls(
            device=store.device.state_patch(),
            archive_device=(store.archive_device.state_patch()
                            if store.archive_device is not None else None),
            meta=store.fs.cut_meta() if store.fs is not None else None)

    @classmethod
    def cut(cls, store: "TamperEvidentStore") -> "StoreStatePatch":
        """Everything ``store`` changed since its last sync point:
        applied to a copy taken then, it makes that copy equal to
        ``store``.  Clears the media's dirty marks and makes now the
        cache's sync point."""
        archive = store.archive_device
        buffer = io.BytesIO()
        moved, named = _roles(store)
        states = {role: vars(obj) for role, obj in moved.items()}
        if "fs" in states:
            states["fs"] = {name: value
                            for name, value in states["fs"].items()
                            if name not in META_FIELDS}
        _GraphPickler(buffer, {**moved, **named}).dump(states)
        return cls(
            device=store.device.state_patch(),
            archive_device=(archive.state_patch()
                            if archive is not None else None),
            meta=store.fs.cut_meta() if store.fs is not None else None,
            medium=store.device.medium.cut_delta(),
            archive_medium=(archive.medium.cut_delta()
                            if archive is not None else None),
            graph=buffer.getvalue())

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        graph, meta = state.pop("graph"), state.pop("meta")
        state["packed"] = None if graph is None and meta is None \
            else zlib.compress(pickle.dumps((graph, meta),
                                            pickle.HIGHEST_PROTOCOL), 1)
        return state

    def __setstate__(self, state: dict) -> None:
        packed = state.pop("packed")
        state["graph"], state["meta"] = (None, None) if packed is None \
            else pickle.loads(zlib.decompress(packed))
        vars(self).update(state)

    def decode(self, store: "TamperEvidentStore"
               ) -> Optional[Dict[str, dict]]:
        """The graph's states by role, its references resolved to
        ``store``'s objects; nothing of ``store`` changes, so a caller
        may decode while another thread still works."""
        if self.graph is None:
            return None
        moved, named = _roles(store)
        return _GraphUnpickler(io.BytesIO(self.graph),
                               {**moved, **named}).load()

    def apply(self, store: "TamperEvidentStore",
              states: Optional[Dict[str, dict]] = None) -> None:
        """Install the patch on ``store``; ``states`` is this patch's
        :meth:`decode` for ``store``, when taken already."""
        if states is None:
            states = self.decode(store)
        if states:
            moved, _named = _roles(store)
            for role, state in states.items():
                target = vars(moved[role])
                kept = {name: target[name] for name in META_FIELDS} \
                    if role == "fs" else {}
                target.clear()
                target.update(state)
                target.update(kept)
        for device, patch, delta in (
                (store.device, self.device, self.medium),
                (store.archive_device, self.archive_device,
                 self.archive_medium)):
            if delta is not None:
                device.medium.apply_delta(delta)
            if patch is not None:
                patch.apply(device)
        if store.fs is not None:
            store.fs.apply_meta(self.meta)


# ---------------------------------------------------------------------------
# The façade


class TamperEvidentStore:
    """One tamper-evident storage service over SERO hardware.

    Build one with :meth:`create` (fresh device + file system and, per
    :class:`StoreConfig`, archive/fossil arenas and an instruction
    log), or wrap existing components with :meth:`attach`.  The
    underlying layers stay reachable (:attr:`device`, :attr:`fs`,
    :attr:`venti`, :attr:`fossil`, :attr:`audit_log`) — the façade is
    a front door, not a wall.
    """

    def __init__(self, device: SERODevice, fs: Optional[SeroFS] = None, *,
                 venti: Optional[VentiStore] = None,
                 fossil: Optional[FossilizedIndex] = None,
                 audit_log: Optional[AuditLog] = None,
                 archive_device: Optional[SERODevice] = None,
                 config: Optional[StoreConfig] = None) -> None:
        self.device = device
        self.fs = fs
        self.venti = venti
        self.fossil = fossil
        self.audit_log = audit_log
        self.archive_device = archive_device
        self.config = config or StoreConfig(total_blocks=device.total_blocks)
        self._archives: Dict[str, bytes] = {}
        self._receipts: Dict[str, SealReceipt] = {}
        self._tick = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(cls, config: Optional[StoreConfig] = None,
               **overrides) -> "TamperEvidentStore":
        """Provision a fresh store.

        Keyword overrides are :class:`StoreConfig` fields, so the
        short forms read naturally::

            store = TamperEvidentStore.create(total_blocks=256)
            store = TamperEvidentStore.create(total_blocks=256,
                                              audit_log=True)
        """
        config = dataclasses.replace(config or StoreConfig(), **overrides) \
            if overrides else (config or StoreConfig())
        device_config = config.device_config or DeviceConfig()
        device = SERODevice.create(config.total_blocks,
                                   medium_config=config.medium_config,
                                   timing=config.timing,
                                   config=device_config,
                                   blocks_per_row=config.blocks_per_row)
        if config.format_scan:
            device.format()
        fs = SeroFS.format(device, config.fs_config)

        venti = fossil = None
        archive_device = None
        if config.archive_blocks or config.fossil_blocks:
            archive_device = SERODevice.create(
                config.archive_blocks + config.fossil_blocks,
                medium_config=config.medium_config,
                timing=config.timing,
                config=dataclasses.replace(device_config))
            if config.format_scan:
                archive_device.format()
            if config.archive_blocks:
                venti = VentiStore(archive_device, arena_start=0,
                                   arena_blocks=config.archive_blocks,
                                   batched=device_config.span_engine)
            if config.fossil_blocks:
                fossil = FossilizedIndex(archive_device,
                                         arena_start=config.archive_blocks,
                                         arena_blocks=config.fossil_blocks)

        audit_log = AuditLog(fs, rotate_bytes=config.audit_rotate_bytes) \
            if config.audit_log else None
        return cls(device, fs, venti=venti, fossil=fossil,
                   audit_log=audit_log, archive_device=archive_device,
                   config=config)

    @classmethod
    def attach(cls, device: SERODevice, fs: Optional[SeroFS] = None,
               **components) -> "TamperEvidentStore":
        """Wrap existing components (no formatting, nothing created).

        With ``fs=None`` the store is device-grain only: ``put`` and
        friends raise, but ``format_device``/``audit``/``verify_line``
        work — the mode a ``FleetStore`` runs racks of bare devices in.
        """
        return cls(device, fs, **components)

    @classmethod
    def mount(cls, device: SERODevice,
              fs_config: Optional[FSConfig] = None,
              **components) -> "TamperEvidentStore":
        """Reopen the file system already on ``device``."""
        return cls(device, SeroFS.mount(device, fs_config), **components)

    # -- plumbing ---------------------------------------------------------------

    def _require_fs(self) -> SeroFS:
        if self.fs is None:
            raise ConfigurationError(
                "this TamperEvidentStore wraps a bare device; object-grain "
                "operations need a file system (use create(), mount(), or "
                "attach(device, fs))")
        return self.fs

    def _record(self, op: str, *args: str) -> None:
        """Self-securing discipline: log the instruction *before*
        executing it (the log must not trust the host afterwards)."""
        self._tick += 1
        if self.audit_log is not None:
            line = " ".join((op,) + args).encode("utf-8")
            self.audit_log.log(self._tick, line)

    # -- object grain -----------------------------------------------------------

    def put(self, path: str, data: bytes = b"", *,
            overwrite: bool = False,
            make_parents: bool = False) -> ObjectInfo:
        """Store (or with ``overwrite`` replace) one WMRM object.

        ``make_parents`` creates the missing directory chain first
        (``mkdir -p``, :meth:`~repro.fs.lfs.SeroFS.makedirs`), the grain
        service callers like the HTTP gateway need — a tenant writing
        ``/invoices/2026/q3`` should not have to issue three mkdirs
        over the wire.
        """
        fs = self._require_fs()
        if make_parents:
            fs.makedirs("/" + "/".join(path.strip("/").split("/")[:-1]))
        self._record("put", path, str(len(data)))
        try:
            stat = fs.create(path, data)
        except FileExistsError_:
            if not overwrite:
                raise
            stat = fs.write(path, data)
        return ObjectInfo.from_stat(stat)

    def get(self, path: str) -> bytes:
        """Read one object (sealed objects read at magnetic speed)."""
        return self._require_fs().read(path)

    def delete(self, path: str) -> None:
        """Remove an unsealed object (sealing makes objects immutable)."""
        self._record("delete", path)
        self._require_fs().unlink(path)

    def info(self, path: str) -> ObjectInfo:
        """Metadata of one object."""
        return ObjectInfo.from_stat(self._require_fs().stat(path))

    def list(self, path: str = "/") -> List[str]:
        """Names inside a directory."""
        return self._require_fs().listdir(path)

    # -- the write-once operation ------------------------------------------------

    def seal(self, path: str, *,
             timestamp: Optional[int] = None) -> SealReceipt:
        """Make one object tamper-evident (cluster + heat its line)."""
        fs = self._require_fs()
        self._record("seal", path)
        record = fs.heat_file(path, timestamp=timestamp)
        receipt = SealReceipt.from_record(path, record)
        self._receipts[path] = receipt
        if self.fossil is not None:
            try:
                self.fossil.insert(record.line_hash,
                                   timestamp=record.timestamp)
            except FossilSlotError:
                pass  # identical line content re-sealed: already catalogued
        return receipt

    def seal_many(self, paths: Sequence[str], *,
                  timestamp: Optional[int] = None) -> List[SealReceipt]:
        """Seal a batch of objects: exactly a :meth:`seal` loop.

        A heat is atomic per line, so the batch is the protocol's own
        grain repeated: an error at path k leaves paths 0..k-1 sealed
        and receipted.
        """
        return [self.seal(path, timestamp=timestamp) for path in paths]

    def put_sealed(self, path: str, data: bytes, *,
                   timestamp: Optional[int] = None) -> SealReceipt:
        """Store and immediately seal (the evidence-bag idiom)."""
        self.put(path, data)
        return self.seal(path, timestamp=timestamp)

    @property
    def receipts(self) -> Dict[str, SealReceipt]:
        """Seal receipts issued through this façade, by path."""
        return dict(self._receipts)

    # -- verification ------------------------------------------------------------

    def verify(self, path: str) -> VerifyReport:
        """Verify one sealed object against its stored line hash."""
        result = self._require_fs().verify_file(path)
        return VerifyReport.from_result(result, label=path)

    def verify_line(self, start: int) -> VerifyReport:
        """Device-grain verify of the line starting at ``start``."""
        return VerifyReport.from_result(self.device.verify_line(start))

    def audit(self, *, deep: bool = False) -> AuditReport:
        """Verify every sealed line in one batched sweep.

        The device's :meth:`~repro.device.sero.SERODevice.verify_lines`
        reads all lines' electrical regions in a single bulk erb gather
        with shared retry waves — the fleet-scale audit hot path.  With
        ``deep`` the file system's consistency check (imap, block
        ownership, directory tree) runs too.
        """
        report = AuditReport(deep=deep)
        labels = self._line_labels()
        before = self.device.account.elapsed
        results = self.device.verify_all()
        report.device_seconds += self.device.account.elapsed - before
        report.reports.extend(
            VerifyReport.from_result(res, label=labels.get(res.start))
            for res in results)
        if self.archive_device is not None:
            before = self.archive_device.account.elapsed
            for res in self.archive_device.verify_all():
                report.reports.append(VerifyReport.from_result(
                    res, label=f"archive:{res.start}"))
            report.device_seconds += \
                self.archive_device.account.elapsed - before
        if deep and self.fs is not None:
            from ..fs.fsck import fsck

            fsck_report = fsck(self.fs, verify_lines=False)
            report.fs_errors.extend(fsck_report.errors)
            report.fs_warnings.extend(fsck_report.warnings)
        return report

    def _line_labels(self) -> Dict[int, str]:
        """Best-effort human labels for sealed lines: receipt paths
        where this façade issued the seal, inode name hints otherwise.
        Lines covered by a receipt are labelled without touching the
        device — the inode read (a real magnetic block read that
        charges the scanner) only happens for lines sealed below the
        façade."""
        labels: Dict[int, str] = {
            receipt.line_start: path
            for path, receipt in self._receipts.items()}
        if self.fs is not None:
            for ino, pba in self.fs.imap.items():
                line = self.device.line_of_block(pba)
                if line is None or line.start in labels:
                    continue
                try:
                    hint = self.fs._inode_of(ino).name_hint
                except (FileNotFoundError_, ReadError):
                    hint = "?"
                labels[line.start] = f"{ino}:{hint}"
        return labels

    # -- forensics ----------------------------------------------------------------

    def export_evidence(self, case: str,
                        exhibits: Mapping[str, bytes], *,
                        timestamp: Optional[int] = None) -> EvidenceExport:
        """Seal ``exhibits`` in place as a closed evidence bag.

        Each exhibit is written and heated immediately (no imaging
        copy), then a heated manifest binds the item list together.
        """
        fs = self._require_fs()
        self._record("export_evidence", case, str(len(exhibits)))
        try:
            fs.mkdir(self.config.evidence_root)
        except FileExistsError_:
            pass
        directory = f"{self.config.evidence_root}/{case}"
        bag = EvidenceBag(fs, directory)
        for name, data in exhibits.items():
            bag.add(name, data, timestamp=timestamp)
        manifest = bag.close(timestamp=timestamp)
        verdicts = bag.audit()
        reports = tuple(
            VerifyReport.from_result(result, label=f"{directory}/{name}")
            for name, result in verdicts.items())
        intact = all(r.status is VerifyStatus.INTACT
                     for r in verdicts.values())
        return EvidenceExport(case=case, directory=directory,
                              items=tuple(bag.items), manifest=manifest,
                              intact=intact, reports=reports)

    # -- content-addressed archive --------------------------------------------------

    def _require_venti(self) -> VentiStore:
        if self.venti is None:
            raise ConfigurationError(
                "no archive arena configured; create the store with "
                "StoreConfig(archive_blocks=...)")
        return self.venti

    def archive(self, name: str, data: bytes, *,
                timestamp: int = 0) -> ArchiveReceipt:
        """Snapshot ``data`` as a hash tree and seal its root."""
        venti = self._require_venti()
        self._record("archive", name, str(len(data)))
        before = venti.blocks_used()
        root = venti.snapshot(name, data, timestamp=timestamp)
        self._archives[name] = root
        if self.fossil is not None:
            try:
                self.fossil.insert(root, timestamp=timestamp)
            except FossilSlotError:
                pass  # identical content re-archived
        return ArchiveReceipt(name=name, root_score=root,
                              bytes_archived=len(data),
                              arena_blocks_used=venti.blocks_used() - before)

    def retrieve(self, name: str) -> bytes:
        """Read an archived snapshot back, re-verifying every node."""
        venti = self._require_venti()
        root = self._archives.get(name)
        if root is None:
            raise IntegrityError(f"no archive named {name!r}")
        return venti.read_stream(root)

    @property
    def archives(self) -> Dict[str, bytes]:
        """Archived snapshot names mapped to their root scores."""
        return dict(self._archives)

    # -- instruction log --------------------------------------------------------------

    def history(self) -> List[Tuple[int, bytes]]:
        """The self-securing instruction log (empty when disabled)."""
        if self.audit_log is None:
            return []
        return self.audit_log.history()

    def seal_log(self) -> Optional[str]:
        """Rotate and heat the instruction log's active tail."""
        if self.audit_log is None:
            raise ConfigurationError(
                "no instruction log configured; create the store with "
                "StoreConfig(audit_log=True)")
        return self.audit_log.rotate(timestamp=self._tick)

    # -- device grain -----------------------------------------------------------------

    def format_device(self) -> FormatReport:
        """Run the format-time surface scan (bad-block discovery) on a
        device-grain store.

        The scan writes and reads back every block, so on a store with
        a file system it would erase the mounted tree out from under
        it: that is a :class:`ConfigurationError`, raised before the
        device is touched.  A file-system-backed store is scanned once,
        as a step of :meth:`create` (``StoreConfig.format_scan``).
        """
        if self.fs is not None:
            raise ConfigurationError(
                "format_device() would erase the mounted file system: "
                "the format scan is a step of create() "
                "(StoreConfig.format_scan) and runs on device-grain "
                "stores (TamperEvidentStore.attach(device)) only")
        before = self.device.account.elapsed
        self.device.format()
        return FormatReport(
            blocks=self.device.total_blocks,
            bad_blocks=len(self.device.bad_blocks),
            fragile_blocks=len(self.device.fragile_blocks),
            device_seconds=self.device.account.elapsed - before)

    def capacity(self) -> Dict[str, int]:
        """Capacity accounting across every managed device/arena."""
        out = dict(self.device.capacity_report())
        if self.venti is not None:
            out["archive_blocks_used"] = self.venti.blocks_used()
            out["archive_blocks_total"] = self.venti.arena_blocks
        if self.fossil is not None:
            out["fossil_nodes"] = self.fossil.node_count
            out["fossil_records"] = self.fossil.records
        return out

    def describe(self) -> Dict[str, object]:
        """Inspectable summary: components, usage."""
        return {
            "total_blocks": self.device.total_blocks,
            "sealed_lines": len(self.device.heated_lines),
            "filesystem": self.fs is not None,
            "archive": self.venti is not None,
            "fossil_index": self.fossil is not None,
            "instruction_log": self.audit_log is not None,
            "receipts": len(self._receipts),
        }
