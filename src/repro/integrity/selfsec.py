"""Self-securing storage with heatable request logs (Section 8).

"The idea of self-securing storage takes the view that the storage
system should place only limited trust in the host that controls it
... the storage system itself maintains a log of the instructions it
is given ... Our approach could strengthen the defences of a
self-securing storage device because the logs can be heated."

:class:`AuditLog` appends one record per storage instruction to a log
file; when a log segment reaches its rotation size (or on demand) it
is heated, making the recorded history physically immutable.  The log
survives directory wipes through the ordinary deep scan (each chunk
is a heated file) and any rewrite of a sealed chunk is caught by
verification.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..device.sero import VerificationResult, VerifyStatus
from ..errors import FileExistsError_, IntegrityError
from ..fs.lfs import SeroFS

_RECORD_HEAD = ">QH"  # tick, length


@dataclass
class AuditLog:
    """An append-only, incrementally heated instruction log.

    Args:
        fs: file system to keep the log on.
        path: directory for the log chunks.
        rotate_bytes: heat the active chunk once it reaches this size.
    """

    fs: SeroFS
    path: str = "/audit"
    rotate_bytes: int = 4096
    _active: bytearray = field(default_factory=bytearray)
    _chunk_index: int = 0
    _sealed_chunks: List[Tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        try:
            self.fs.mkdir(self.path)
        except FileExistsError_:
            pass

    # -- logging -----------------------------------------------------------------

    def log(self, tick: int, instruction: bytes) -> None:
        """Record one storage instruction."""
        if len(instruction) > 0xFFFF:
            raise IntegrityError("instruction record too large")
        self._active += struct.pack(_RECORD_HEAD, tick, len(instruction))
        self._active += instruction
        if len(self._active) >= self.rotate_bytes:
            self.rotate(timestamp=tick)

    def rotate(self, timestamp: Optional[int] = None) -> Optional[str]:
        """Seal the active chunk: write it as a file and heat it.

        Returns the sealed chunk's path (None when there was nothing
        to seal).
        """
        if not self._active:
            return None
        name = f"{self.path}/log-{self._chunk_index:06d}"
        self.fs.create(name, bytes(self._active))
        record = self.fs.heat_file(name, timestamp=timestamp)
        self._sealed_chunks.append((name, record.start))
        self._active.clear()
        self._chunk_index += 1
        return name

    # -- reading back ---------------------------------------------------------------

    @property
    def sealed_chunks(self) -> List[str]:
        """Paths of heated log chunks."""
        return [name for name, _start in self._sealed_chunks]

    def history(self) -> List[Tuple[int, bytes]]:
        """All records, sealed chunks first, then the active tail."""
        out: List[Tuple[int, bytes]] = []
        for name, _start in self._sealed_chunks:
            out.extend(_parse_records(self.fs.read(name)))
        out.extend(_parse_records(bytes(self._active)))
        return out

    def verify(self) -> Dict[str, VerificationResult]:
        """Verify every sealed chunk's heated line (batched through
        :meth:`~repro.device.sero.SERODevice.verify_lines`)."""
        results = self.fs.device.verify_lines(
            [start for _name, start in self._sealed_chunks])
        return {name: result
                for (name, _start), result in zip(self._sealed_chunks, results)}

    def is_history_intact(self) -> bool:
        """True when every sealed chunk verifies INTACT."""
        return all(result.status is VerifyStatus.INTACT
                   for result in self.verify().values())


def _parse_records(raw: bytes) -> List[Tuple[int, bytes]]:
    head_size = struct.calcsize(_RECORD_HEAD)
    records: List[Tuple[int, bytes]] = []
    offset = 0
    while offset + head_size <= len(raw):
        tick, length = struct.unpack_from(_RECORD_HEAD, raw, offset)
        offset += head_size
        records.append((tick, raw[offset:offset + length]))
        offset += length
    return records


class SelfSecuringFS:
    """A SeroFS wrapper that logs every mutating instruction.

    The wrapper records the instruction *before* executing it (the
    self-securing discipline: the log must not depend on the host
    being honest afterwards) and exposes the same mutating calls.
    """

    def __init__(self, fs: SeroFS, rotate_bytes: int = 4096) -> None:
        self.fs = fs
        self.audit = AuditLog(fs, rotate_bytes=rotate_bytes)
        self._tick = 0

    def _record(self, op: str, *args: str) -> None:
        self._tick += 1
        line = " ".join((op,) + args).encode("utf-8")
        self.audit.log(self._tick, line)

    def create(self, path: str, data: bytes = b""):
        """Logged create."""
        self._record("create", path, str(len(data)))
        return self.fs.create(path, data)

    def write(self, path: str, data: bytes):
        """Logged write."""
        self._record("write", path, str(len(data)))
        return self.fs.write(path, data)

    def unlink(self, path: str):
        """Logged unlink."""
        self._record("unlink", path)
        return self.fs.unlink(path)

    def heat_file(self, path: str, timestamp: Optional[int] = None):
        """Logged heat."""
        self._record("heat", path)
        return self.fs.heat_file(path, timestamp=timestamp)

    def read(self, path: str) -> bytes:
        """Reads are not logged (self-securing logs capture mutations)."""
        return self.fs.read(path)

    def seal_log(self):
        """Rotate and heat the current log tail."""
        return self.audit.rotate(timestamp=self._tick)
