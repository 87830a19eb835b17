"""Inodes of the SERO log-structured file system.

An inode occupies exactly one 512-byte block so it can be appended to
the log like any other block and — crucially — so a *heated* file's
inode sits inside the heated line, making the reference count, size
and block pointers tamper-evident.  The security analysis of Section
5.2 depends on this: ``rm`` must decrement the link count, which means
rewriting the inode, which invalidates the line hash.

Layout (big-endian), 512 bytes:

====== ===== ==========================================
offset bytes field
====== ===== ==========================================
0      4     magic ``INOD``
4      8     inode number
12     1     file type (regular / directory)
13     1     flags
14     2     link count
16     8     size [bytes]
24     8     mtime [integer ticks]
32     64    name hint (basename, NUL padded) — lets the
             fsck deep scan attach names to recovered files
96     2     number of direct pointers used
98     2     number of indirect pointers used
100    44*8  direct block pointers
452    7*8   indirect block pointers (each points at a
             block of 64 pointers)
508    4     CRC-32 of bytes [0, 508)
====== ===== ==========================================
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List

from ..crypto.crc import crc32
from ..device.sector import BLOCK_SIZE
from ..errors import FileSystemError, ReadError

INODE_MAGIC = b"INOD"
N_DIRECT = 44
N_INDIRECT = 7
POINTERS_PER_INDIRECT = BLOCK_SIZE // 8  # 64

#: Largest file the pointer scheme supports [blocks].
MAX_FILE_BLOCKS = N_DIRECT + N_INDIRECT * POINTERS_PER_INDIRECT

#: Largest file size [bytes].
MAX_FILE_SIZE = MAX_FILE_BLOCKS * BLOCK_SIZE

_NAME_BYTES = 64

#: Sentinel stored in unused pointer slots.
NULL_PBA = 0xFFFFFFFFFFFFFFFF


class FileType(enum.IntEnum):
    """File kinds supported by the file system."""

    REGULAR = 1
    DIRECTORY = 2


@dataclass
class Inode:
    """In-memory inode.

    Attributes:
        ino: inode number (root directory is 1).
        ftype: file kind.
        link_count: hard-link count.
        size: file size in bytes.
        mtime: modification tick.
        name_hint: basename recorded for forensic recovery.
        direct: PBAs of the first ``N_DIRECT`` file blocks.
        indirect: PBAs of indirect pointer blocks.
        flags: reserved.
    """

    ino: int
    ftype: FileType = FileType.REGULAR
    link_count: int = 1
    size: int = 0
    mtime: int = 0
    name_hint: str = ""
    direct: List[int] = field(default_factory=list)
    indirect: List[int] = field(default_factory=list)
    flags: int = 0

    @property
    def n_blocks(self) -> int:
        """Number of data blocks the file occupies."""
        return (self.size + BLOCK_SIZE - 1) // BLOCK_SIZE

    def copy(self) -> "Inode":
        """An equal inode whose pointer lists are its own, for a caller
        that mutates what it was handed."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), direct=list(self.direct),
                          indirect=list(self.indirect))
        return twin

    def pack(self) -> bytes:
        """Serialise to one 512-byte block payload."""
        if len(self.direct) > N_DIRECT:
            raise FileSystemError("too many direct pointers")
        if len(self.indirect) > N_INDIRECT:
            raise FileSystemError("too many indirect pointers")
        name = self.name_hint.encode("utf-8")[:_NAME_BYTES]
        name += b"\x00" * (_NAME_BYTES - len(name))
        head = struct.pack(">4sQBBHQQ", INODE_MAGIC, self.ino,
                           int(self.ftype), self.flags,
                           self.link_count, self.size, self.mtime)
        counts = struct.pack(">HH", len(self.direct), len(self.indirect))
        direct = b"".join(struct.pack(">Q", p) for p in self.direct)
        direct += struct.pack(">Q", NULL_PBA) * (N_DIRECT - len(self.direct))
        indirect = b"".join(struct.pack(">Q", p) for p in self.indirect)
        indirect += struct.pack(">Q", NULL_PBA) * (N_INDIRECT - len(self.indirect))
        body = head + name + counts + direct + indirect
        body += b"\x00" * (BLOCK_SIZE - 4 - len(body))
        return body + struct.pack(">I", crc32(body))

    @classmethod
    def unpack(cls, payload: bytes) -> "Inode":
        """Parse a 512-byte block payload into an inode.

        Raises :class:`~repro.errors.ReadError` when the payload is not
        an inode (bad magic or CRC) — the test the fsck deep scan uses
        to tell inodes from data blocks.
        """
        if len(payload) != BLOCK_SIZE:
            raise ReadError("inode payload must be one block")
        (stored,) = struct.unpack(">I", payload[-4:])
        if crc32(payload[:-4]) != stored:
            raise ReadError("inode CRC mismatch")
        magic, ino, ftype, flags, links, size, mtime = struct.unpack(
            ">4sQBBHQQ", payload[:32])
        if magic != INODE_MAGIC:
            raise ReadError("not an inode (bad magic)")
        name = payload[32:32 + _NAME_BYTES].rstrip(b"\x00").decode("utf-8")
        n_direct, n_indirect = struct.unpack(">HH", payload[96:100])
        if n_direct > N_DIRECT or n_indirect > N_INDIRECT:
            raise ReadError("inode pointer counts out of range")
        direct = list(struct.unpack(f">{N_DIRECT}Q", payload[100:100 + N_DIRECT * 8]))
        indirect = list(struct.unpack(
            f">{N_INDIRECT}Q", payload[452:452 + N_INDIRECT * 8]))
        return cls(ino=ino, ftype=FileType(ftype), link_count=links,
                   size=size, mtime=mtime, name_hint=name,
                   direct=direct[:n_direct], indirect=indirect[:n_indirect],
                   flags=flags)


def pack_pointer_block(pointers: List[int]) -> bytes:
    """Serialise an indirect pointer block (up to 64 PBAs)."""
    if len(pointers) > POINTERS_PER_INDIRECT:
        raise FileSystemError("too many pointers for an indirect block")
    data = b"".join(struct.pack(">Q", p) for p in pointers)
    data += struct.pack(">Q", NULL_PBA) * (POINTERS_PER_INDIRECT - len(pointers))
    return data


def unpack_pointer_block(payload: bytes) -> List[int]:
    """Parse an indirect pointer block, dropping NULL entries."""
    if len(payload) != BLOCK_SIZE:
        raise ReadError("pointer block payload must be one block")
    values = struct.unpack(f">{POINTERS_PER_INDIRECT}Q", payload)
    return [v for v in values if v != NULL_PBA]
