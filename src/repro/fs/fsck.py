"""File-system check and forensic recovery.

Section 5.2: "Assume that the attacker clears the directory structure,
then a fsck style scan of the medium would definitely recover (albeit
slowly) all the heated files."  This module implements that scan:

* :func:`deep_scan` — device-level: rediscovers every heated line by
  electrical probing (no checkpoint, no directories needed), parses
  each line's inode block and returns recovered files with their name
  hints, contents and verification results.
* :func:`fsck` — consistency audit of a mounted file system: cross
  checks the imap, block ownership, directory tree and line registry,
  and verifies every heated line's hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..device.sero import SERODevice, VerificationResult, VerifyStatus
from ..errors import ReadError
from .inode import FileType, Inode, unpack_pointer_block
from .segment import BlockState

if TYPE_CHECKING:  # pragma: no cover
    from ..api.store import TamperEvidentStore
    from .lfs import SeroFS


def _as_device(target) -> SERODevice:
    """Accept a :class:`SERODevice` or anything fronting one (the
    :class:`~repro.api.store.TamperEvidentStore` façade)."""
    if isinstance(target, SERODevice):
        return target
    inner = getattr(target, "device", None)
    if isinstance(inner, SERODevice):
        return inner
    raise TypeError(f"expected a SERODevice or a store façade, "
                    f"got {type(target).__name__}")


def _as_fs(target) -> "SeroFS":
    """Accept a :class:`SeroFS` or a façade carrying one."""
    from .lfs import SeroFS

    if isinstance(target, SeroFS):
        return target
    inner = getattr(target, "fs", None)
    if isinstance(inner, SeroFS):
        return inner
    raise TypeError(f"expected a SeroFS or a store façade with a file "
                    f"system, got {type(target).__name__}")


@dataclass
class RecoveredFile:
    """One heated file recovered by the deep scan.

    Attributes:
        line_start: PBA of the line's hash block.
        ino: inode number from the recovered inode.
        name_hint: basename recorded in the inode.
        size: file size from the inode.
        data: recovered contents (None when unreadable).
        verification: the line's hash verification result.
    """

    line_start: int
    ino: int
    name_hint: str
    size: int
    data: Optional[bytes]
    verification: VerificationResult


@dataclass
class DeepScanReport:
    """Outcome of a forensic deep scan.

    ``blocks_scanned`` and ``device_seconds`` expose the cost of the
    Section 5.2 "albeit slowly" caveat, which the whole-medium
    electrical probe dominates.
    """

    recovered: List[RecoveredFile] = field(default_factory=list)
    tampered_lines: List[VerificationResult] = field(default_factory=list)
    unparseable_lines: List[int] = field(default_factory=list)
    blocks_scanned: int = 0
    device_seconds: float = 0.0

    @property
    def intact_count(self) -> int:
        """Recovered files whose hash verified INTACT."""
        return sum(1 for f in self.recovered
                   if f.verification.status is VerifyStatus.INTACT)


def _pointer_runs(pointers: List[int]) -> List[tuple]:
    """Group ``pointers`` (in order) into ``(first, count)`` runs of
    consecutive PBAs — log-structured writes lay file blocks out
    sequentially inside the line, so a recovered file is typically one
    or two runs."""
    runs: List[tuple] = []
    for pba in pointers:
        if runs and pba == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((pba, 1))
    return runs


def _read_pointers(device: SERODevice, pointers: List[int]) -> List[bytes]:
    """The payloads behind ``pointers``, read run by run."""
    chunks: List[bytes] = []
    for first, count in _pointer_runs(pointers):
        chunks.extend(device.read_block_run(first, count))
    return chunks


def deep_scan(device: "SERODevice | TamperEvidentStore") -> DeepScanReport:
    """Recover all heated files straight from the medium.

    Works with no checkpoint, no superblock and no directory tree: the
    heated lines themselves are found electrically, each line's block 1
    is parsed as an inode, and the file contents are reassembled from
    the inode's pointers (all inside the line).  Accepts a raw device
    or a :class:`~repro.api.store.TamperEvidentStore`.

    Each file's pointer walk is grouped into runs of consecutive blocks
    and read through
    :meth:`~repro.device.sero.SERODevice.read_block_run`: one medium
    span per run on the span engine, a per-block ``read_block`` loop on
    a ``DeviceConfig(span_engine=False)`` device.
    """
    device = _as_device(device)
    report = DeepScanReport(blocks_scanned=device.total_blocks)
    elapsed_before = device.account.elapsed
    records = device.scan_lines()
    verifications = device.verify_lines([rec.start for rec in records])
    for record, verification in zip(records, verifications):
        if verification.tamper_evident:
            report.tampered_lines.append(verification)
        inode_pba = record.start + 1
        try:
            inode = Inode.unpack(device.read_block(inode_pba))
        except ReadError:
            report.unparseable_lines.append(record.start)
            continue
        data: Optional[bytes] = None
        try:
            pointers = list(inode.direct)
            for ipba in inode.indirect:
                pointers.extend(unpack_pointer_block(device.read_block(ipba)))
            pointers = pointers[:inode.n_blocks]
            chunks = _read_pointers(device, pointers)
            data = b"".join(chunks)[:inode.size]
        except ReadError:
            data = None
        report.recovered.append(RecoveredFile(
            line_start=record.start, ino=inode.ino,
            name_hint=inode.name_hint, size=inode.size, data=data,
            verification=verification))
    report.device_seconds = device.account.elapsed - elapsed_before
    return report


@dataclass
class FsckReport:
    """Outcome of a mounted-FS consistency check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    heated_verifications: Dict[int, VerificationResult] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no errors were found."""
        return not self.errors


def fsck(fs: "SeroFS | TamperEvidentStore",
         verify_lines: bool = True) -> FsckReport:
    """Audit a mounted file system.

    Checks that every imap entry parses as the right inode, that every
    file block is accounted LIVE or HEATED in the segment table, that
    the directory tree reaches every inode, and (optionally) that every
    heated line verifies INTACT.  Accepts a :class:`SeroFS` or a
    :class:`~repro.api.store.TamperEvidentStore`.
    """
    fs = _as_fs(fs)
    report = FsckReport()
    reachable = _walk_tree(fs, report)
    for ino, inode_pba in sorted(fs.imap.items()):
        try:
            inode = fs._read_inode_at(inode_pba)
        except ReadError as exc:
            report.errors.append(f"inode {ino}: unreadable at {inode_pba}: {exc}")
            continue
        if inode.ino != ino:
            report.errors.append(
                f"inode {ino}: block {inode_pba} holds inode {inode.ino}")
            continue
        if ino not in reachable:
            report.warnings.append(
                f"inode {ino} ({inode.name_hint!r}) unreachable from root")
        state = fs.table.state(inode_pba)
        if state not in (BlockState.LIVE, BlockState.HEATED):
            report.errors.append(
                f"inode {ino}: inode block {inode_pba} is {state.value}")
        try:
            pointers, indirect = fs._load_pointers(inode)
        except ReadError as exc:
            report.errors.append(f"inode {ino}: pointer read failed: {exc}")
            continue
        for pba in pointers + indirect:
            state = fs.table.state(pba)
            if state not in (BlockState.LIVE, BlockState.HEATED):
                report.errors.append(
                    f"inode {ino}: block {pba} is {state.value}")
    if verify_lines:
        records = fs.device.heated_lines
        results = fs.device.verify_lines([rec.start for rec in records])
        for record, result in zip(records, results):
            report.heated_verifications[record.start] = result
            if result.tamper_evident:
                report.errors.append(
                    f"heated line {record.start}: {result.status.value}")
    return report


def _walk_tree(fs: "SeroFS", report: FsckReport) -> set:
    """Collect inodes reachable from the root directory."""
    from .lfs import ROOT_INO

    reachable = set()
    stack = [ROOT_INO]
    while stack:
        ino = stack.pop()
        if ino in reachable:
            continue
        reachable.add(ino)
        try:
            inode = fs._read_inode(ino)
        except Exception as exc:  # surfaced as error; keep walking
            report.errors.append(f"directory walk: inode {ino}: {exc}")
            continue
        if inode.ftype is not FileType.DIRECTORY:
            continue
        try:
            entries = fs._dir_entries(inode)
        except ReadError as exc:
            report.errors.append(f"directory {ino}: unreadable: {exc}")
            continue
        for _name, (_ftype, child) in entries.items():
            stack.append(child)
    return reachable
