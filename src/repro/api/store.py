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
from ..fs.lfs import FileStat, FSConfig, SeroFS
from ..integrity.evidence import EvidenceBag, EvidenceItem
from ..integrity.fossil import FossilizedIndex
from ..integrity.selfsec import AuditLog
from ..integrity.venti import VentiStore
from ..medium.medium import MediumConfig


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


@dataclass
class StoreStatePatch:
    """Read-only-pass state of a whole store, captured portably.

    Wraps one :class:`~repro.device.sero.DeviceStatePatch` per managed
    device (primary + optional archive).  A fleet worker running an
    audit/fsck pass — which never mutates the medium — returns this
    instead of the full member snapshot; applied to the originating
    store it reproduces the pass's side effects byte for byte.

    The one piece of file-system state such a pass moves is the
    metadata cache (a deep audit walks the tree): ``fs_meta`` carries
    its stamp and entries home when the pass filled or flushed it, so
    the caller's next lookup reads exactly the blocks the worker's
    would — and is None on the steady pass that found everything cached.
    """

    device: "DeviceStatePatch"
    archive_device: Optional["DeviceStatePatch"] = None
    fs_meta: Optional[Tuple[int, Dict[int, bytes]]] = None

    @staticmethod
    def fs_meta_mark(store: "TamperEvidentStore") -> Optional[Tuple[int, int]]:
        """Token taken before a pass; :meth:`capture` compares it.  Under
        one stamp a read-only pass can only add entries and a flush
        moves the stamp, so (stamp, size) moves iff the cache did."""
        fs = store.fs
        return None if fs is None else (fs._meta_epoch, len(fs._meta))

    @classmethod
    def capture(cls, store: "TamperEvidentStore",
                fs_meta_mark: Optional[Tuple[int, int]] = None
                ) -> "StoreStatePatch":
        fs = store.fs
        moved = fs is not None and cls.fs_meta_mark(store) != fs_meta_mark
        return cls(
            device=store.device.state_patch(),
            archive_device=(store.archive_device.state_patch()
                            if store.archive_device is not None else None),
            fs_meta=(fs._meta_epoch, dict(fs._meta)) if moved else None)

    def apply(self, store: "TamperEvidentStore") -> None:
        self.device.apply(store.device)
        if self.archive_device is not None:
            self.archive_device.apply(store.archive_device)
        if self.fs_meta is not None:
            store.fs._meta_epoch, store.fs._meta = self.fs_meta


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

    def adopt_state(self, other: "TamperEvidentStore") -> None:
        """Absorb ``other``'s state *in place*.

        ``other`` is a state-equivalent copy of this store that lived
        elsewhere — typically the snapshot a fleet process worker
        mutated and shipped home.  Every object identity a caller may
        hold (the store, ``.device``, ``.device.medium``, ``.fs``,
        ``.venti``, ...) is preserved; only the state moves, so the
        original graph ends the pass exactly as if it had run the work
        itself.

        Every component absorbs the whole ``__dict__`` of its
        counterpart and then re-anchors the references that must keep
        pointing inside *this* graph — so a field added to any layer
        later is picked up automatically rather than silently dropped
        by a hand-maintained copy list.
        """
        pairs = [(self.device, other.device)]
        if self.archive_device is not None and \
                other.archive_device is not None:
            pairs.append((self.archive_device, other.archive_device))
        for mine, new in pairs:
            geometry = mine.geometry  # the identity the graph keeps
            mine.medium.__dict__.clear()
            mine.medium.__dict__.update(new.medium.__dict__)
            mine.medium.geometry = geometry
            mine.account.__dict__.clear()
            mine.account.__dict__.update(new.account.__dict__)
            scanner_anchors = {"geometry": geometry,
                               "timing": mine.timing,
                               "account": mine.account}
            mine.scanner.__dict__.clear()
            mine.scanner.__dict__.update(new.scanner.__dict__)
            mine.scanner.__dict__.update(scanner_anchors)
            device_anchors = {"medium": mine.medium,
                              "geometry": geometry,
                              "timing": mine.timing,
                              "account": mine.account,
                              "scanner": mine.scanner,
                              "bitops": mine.bitops}
            mine.__dict__.clear()
            mine.__dict__.update(new.__dict__)
            mine.__dict__.update(device_anchors)
        for attr, anchor in (("fs", "device"), ("venti", "device"),
                             ("fossil", "device"), ("audit_log", "fs")):
            mine_component = getattr(self, attr)
            new_component = getattr(other, attr)
            if mine_component is None or new_component is None:
                continue
            anchor_obj = getattr(mine_component, anchor)  # original ref
            mine_component.__dict__.clear()
            mine_component.__dict__.update(new_component.__dict__)
            setattr(mine_component, anchor, anchor_obj)
        store_anchors = {"device": self.device, "fs": self.fs,
                         "venti": self.venti, "fossil": self.fossil,
                         "audit_log": self.audit_log,
                         "archive_device": self.archive_device}
        self.__dict__.clear()
        self.__dict__.update(other.__dict__)
        self.__dict__.update(store_anchors)

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
        (``mkdir -p``), the grain service callers like the HTTP
        gateway need — a tenant writing ``/invoices/2026/q3`` should
        not have to issue three mkdirs over the wire.
        """
        fs = self._require_fs()
        if make_parents:
            prefix = ""
            for part in path.strip("/").split("/")[:-1]:
                prefix = f"{prefix}/{part}"
                try:
                    fs.mkdir(prefix)
                except FileExistsError_:
                    pass
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
            for ino, start in self.fs.line_of_ino.items():
                if start in labels:
                    continue
                try:
                    hint = self.fs._read_inode(ino).name_hint
                except (FileNotFoundError_, ReadError):
                    hint = "?"
                labels[start] = f"{ino}:{hint}"
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
