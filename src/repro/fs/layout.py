"""On-device layout: superblock and checkpoint region.

The first segment(s) of the device are reserved:

* block 0 — superblock (geometry, segment size, checkpoint location),
* the remaining reserved blocks form two alternating checkpoint
  copies; a crash during checkpointing never loses both.

A checkpoint persists only the inode map and the allocator cursors.
What is sealed is never copied here: a heated line describes itself
on the medium, and mount finds every line by scanning for its head.
Block ownership (live/dead) is reconstructed at mount by walking the
inodes — stale magnetic frames left in unaccounted blocks are simply
overwritten later, which is safe because every frame carries its own
physical address and CRC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

from ..crypto.crc import crc32
from ..device.sector import BLOCK_SIZE
from ..errors import FileSystemError, ReadError

SUPERBLOCK_MAGIC = b"SEROFS01"


@dataclass
class Superblock:
    """File-system identity block.

    Attributes:
        total_blocks: device capacity the FS was formatted for.
        segment_blocks: blocks per segment.
        checkpoint_start: first PBA of the checkpoint region.
        checkpoint_blocks: size of *each* of the two checkpoint copies.
    """

    total_blocks: int
    segment_blocks: int
    checkpoint_start: int
    checkpoint_blocks: int

    def pack(self) -> bytes:
        """Serialise to one block payload."""
        body = SUPERBLOCK_MAGIC + struct.pack(
            ">QQQQ", self.total_blocks, self.segment_blocks,
            self.checkpoint_start, self.checkpoint_blocks)
        body += b"\x00" * (BLOCK_SIZE - 4 - len(body))
        return body + struct.pack(">I", crc32(body))

    @classmethod
    def unpack(cls, payload: bytes) -> "Superblock":
        """Parse a superblock payload."""
        if len(payload) != BLOCK_SIZE:
            raise ReadError("superblock must be one block")
        (stored,) = struct.unpack(">I", payload[-4:])
        if crc32(payload[:-4]) != stored:
            raise ReadError("superblock CRC mismatch")
        if payload[:8] != SUPERBLOCK_MAGIC:
            raise ReadError("not a SERO file system (bad superblock magic)")
        total, seg, cp_start, cp_blocks = struct.unpack(">QQQQ", payload[8:40])
        return cls(total_blocks=total, segment_blocks=seg,
                   checkpoint_start=cp_start, checkpoint_blocks=cp_blocks)


@dataclass
class Checkpoint:
    """A consistent snapshot of the FS maps.

    Attributes:
        generation: monotonically increasing checkpoint counter.
        next_ino: next inode number to allocate.
        tick: FS logical clock at checkpoint time.
        imap: inode number -> PBA of the inode block.
    """

    generation: int
    next_ino: int
    tick: int
    imap: Dict[int, int] = field(default_factory=dict)

    _MAGIC = b"SEROCKPT"

    def pack(self) -> bytes:
        """Serialise; variable length (blocked by :meth:`to_blocks`)."""
        parts = [self._MAGIC, struct.pack(
            ">QQQ", self.generation, self.next_ino, self.tick)]
        parts.append(struct.pack(">I", len(self.imap)))
        for ino, pba in sorted(self.imap.items()):
            parts.append(struct.pack(">QQ", ino, pba))
        body = b"".join(parts)
        return struct.pack(">I", len(body)) + body + struct.pack(">I", crc32(body))

    @classmethod
    def unpack(cls, raw: bytes) -> "Checkpoint":
        """Parse a serialised checkpoint (raises ReadError when invalid)."""
        if len(raw) < 8:
            raise ReadError("checkpoint too short")
        (length,) = struct.unpack(">I", raw[:4])
        if len(raw) < 4 + length + 4:
            raise ReadError("checkpoint truncated")
        body = raw[4:4 + length]
        (stored,) = struct.unpack(">I", raw[4 + length:8 + length])
        if crc32(body) != stored:
            raise ReadError("checkpoint CRC mismatch")
        if body[:8] != cls._MAGIC:
            raise ReadError("bad checkpoint magic")
        offset = 8
        generation, next_ino, tick = struct.unpack_from(">QQQ", body, offset)
        offset += 24
        (n,) = struct.unpack_from(">I", body, offset)
        offset += 4
        imap = {}
        for _ in range(n):
            ino, pba = struct.unpack_from(">QQ", body, offset)
            offset += 16
            imap[ino] = pba
        return cls(generation=generation, next_ino=next_ino, tick=tick,
                   imap=imap)

    def to_blocks(self, capacity_blocks: int) -> List[bytes]:
        """Split into 512-byte block payloads; raise when it overflows
        the checkpoint region."""
        raw = self.pack()
        nblocks = (len(raw) + BLOCK_SIZE - 1) // BLOCK_SIZE
        if nblocks > capacity_blocks:
            raise FileSystemError(
                f"checkpoint needs {nblocks} blocks but the region holds "
                f"{capacity_blocks}; format with more checkpoint segments")
        raw += b"\x00" * (nblocks * BLOCK_SIZE - len(raw))
        return [raw[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE] for i in range(nblocks)]

    @classmethod
    def from_blocks(cls, payloads: List[bytes]) -> "Checkpoint":
        """Reassemble from block payloads."""
        return cls.unpack(b"".join(payloads))
