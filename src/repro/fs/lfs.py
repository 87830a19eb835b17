"""SeroFS: the SERO-aware log-structured file system (Section 4).

The design follows the paper's two answers to "what properties should
a tamper-evident high-performance file system have":

* **performance** — it is log-structured: writes are clustered into
  segments (Rosenblum/Ousterhout), so WMRM performance stays high and
  related blocks end up contiguous, which is exactly what the heat
  operation needs;
* **tamper evidence** — a file is heated by first *clustering* it into
  one contiguous, aligned line (hash block + inode + indirect blocks +
  data + zero padding) and then invoking the device's WO operation.
  The inode sits inside the line, so link-count and pointer changes
  (``rm``, ``ln``) are tamper-evident, and the physical addresses
  inside the hash defeat copy-masking.

Heated lines are immovable: the allocator places them at the opposite
end of the device from the log head (the *cluster* placement policy),
which produces the bimodal distribution of mostly-heated and
mostly-unheated segments that Section 4.1 argues keeps performance
high; the *naive* policy places them wherever there is room, and the
Section 4.1 paper check shows the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..device.sector import BLOCK_SIZE
from ..device.sero import LineRecord, SERODevice, VerificationResult
from ..errors import (
    ConfigurationError,
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    FileSystemError,
    ImmutableFileError,
    NoSpaceError,
    NotADirectoryError_,
    ReadError,
)
from .directory import pack_entries, split_path, unpack_entries
from .inode import (
    MAX_FILE_SIZE,
    N_DIRECT,
    POINTERS_PER_INDIRECT,
    FileType,
    Inode,
    pack_pointer_block,
    unpack_pointer_block,
)
from .layout import Checkpoint, Superblock
from .segment import INDIRECT_FBN, BlockState, SegmentTable

ROOT_INO = 1


@dataclass
class FSConfig:
    """File-system policy knobs.

    Attributes:
        segment_blocks: blocks per segment (power of two).
        checkpoint_segments: segments reserved for superblock +
            checkpoints (each of the two copies gets half the region).
        heat_placement: ``"cluster"`` (heated lines grow from the end
            of the device — bimodal) or ``"naive"`` (first fit from the
            front — mixes heated and live data).
        cleaner_policy: ``"greedy"``, ``"cost-benefit"`` or ``"sero"``.
        auto_clean: run the cleaner automatically when allocation
            fails, before giving up with NoSpaceError.
    """

    segment_blocks: int = 16
    checkpoint_segments: int = 1
    heat_placement: str = "cluster"
    cleaner_policy: str = "sero"
    auto_clean: bool = True


@dataclass
class FileStat:
    """Result of :meth:`SeroFS.stat`."""

    path: str
    ino: int
    ftype: FileType
    size: int
    link_count: int
    mtime: int
    heated: bool
    line_start: Optional[int] = None


class SeroFS:
    """A SERO-aware log-structured file system over one device.

    Use :meth:`format` to create a fresh file system or :meth:`mount`
    to open an existing one.
    """

    def __init__(self, device: SERODevice, superblock: Superblock,
                 config: FSConfig) -> None:
        self.device = device
        self.sb = superblock
        self.config = config
        reserved = superblock.checkpoint_start + 2 * superblock.checkpoint_blocks
        reserved_segments = (reserved + config.segment_blocks - 1) // config.segment_blocks
        self._reserved_blocks = reserved_segments * config.segment_blocks
        self.table = SegmentTable(device.total_blocks, config.segment_blocks,
                                  reserved_prefix=self._reserved_blocks)
        # bad blocks are never allocatable; fragile blocks stay usable
        # for data but are skipped as line heads (see _find_line_extent)
        for pba in device.bad_blocks:
            if self.table.state(pba) is BlockState.FREE:
                self.table.set_state(pba, BlockState.RESERVED)
        self.imap: Dict[int, int] = {}
        self.line_of_ino: Dict[int, int] = {}
        self.next_ino = ROOT_INO
        self.tick = 0
        self._generation = 0
        self._cursor_segment: Optional[int] = None
        self._cleaning = False
        self._stats = {"blocks_written": 0, "blocks_cleaned": 0,
                       "cleaner_runs": 0, "lines_heated": 0}
        # Decoded payloads of inode and directory blocks by PBA, valid
        # only while the medium's mutation epoch equals the stamp.
        # Payload bytes, never parsed objects: callers mutate the
        # Inode/entries a lookup hands back.  Data blocks never enter.
        self._meta: Dict[int, bytes] = {}
        self._meta_epoch = -1

    # -- construction -----------------------------------------------------------

    @classmethod
    def format(cls, device: SERODevice,
               config: Optional[FSConfig] = None) -> "SeroFS":
        """Create a fresh file system on ``device``."""
        config = config or FSConfig()
        if device.total_blocks % config.segment_blocks:
            raise ConfigurationError(
                "device size must be a whole number of segments")
        cp_region = config.checkpoint_segments * config.segment_blocks - 1
        if cp_region < 2:
            raise ConfigurationError("checkpoint region too small")
        sb = Superblock(total_blocks=device.total_blocks,
                        segment_blocks=config.segment_blocks,
                        checkpoint_start=1,
                        checkpoint_blocks=cp_region // 2)
        fs = cls(device, sb, config)
        fs._dev_write(0, sb.pack())
        fs.next_ino = ROOT_INO
        root = fs._allocate_inode(FileType.DIRECTORY, name_hint="/")
        fs._write_file_blocks(root, pack_entries({}))
        fs.checkpoint()
        return fs

    @classmethod
    def mount(cls, device: SERODevice,
              config: Optional[FSConfig] = None) -> "SeroFS":
        """Open an existing file system from its checkpoint."""
        sb = Superblock.unpack(device.read_block(0))
        config = config or FSConfig()
        config.segment_blocks = sb.segment_blocks
        fs = cls(device, sb, config)
        checkpoint = fs._read_best_checkpoint()
        if checkpoint is None:
            raise ReadError("no valid checkpoint; run fsck deep scan")
        fs._restore(checkpoint)
        return fs

    def _checkpoint_region(self, copy: int) -> int:
        return self.sb.checkpoint_start + copy * self.sb.checkpoint_blocks

    def _read_best_checkpoint(self) -> Optional[Checkpoint]:
        import struct

        best: Optional[Checkpoint] = None
        for copy in (0, 1):
            start = self._checkpoint_region(copy)
            try:
                first = self.device.read_block(start)
                (length,) = struct.unpack(">I", first[:4])
                total = 4 + length + 4
                nblocks = (total + BLOCK_SIZE - 1) // BLOCK_SIZE
                if nblocks > self.sb.checkpoint_blocks:
                    continue
                payloads = [first]
                for pba in range(start + 1, start + nblocks):
                    payloads.append(self.device.read_block(pba))
                candidate = Checkpoint.from_blocks(payloads)
            except ReadError:
                continue
            if best is None or candidate.generation > best.generation:
                best = candidate
        return best

    def _restore(self, checkpoint: Checkpoint) -> None:
        self._generation = checkpoint.generation
        self.next_ino = checkpoint.next_ino
        self.tick = checkpoint.tick
        self.imap = dict(checkpoint.imap)
        # re-register heated lines on the device (one ers each)
        for start, n_blocks in checkpoint.heated_lines:
            record = self.device.load_line(start)
            for pba in range(start, start + n_blocks):
                if self.table.state(pba) is not BlockState.HEATED:
                    self.table.mark_heated(pba)
            if record is None:
                continue
        # rebuild block ownership by walking the inodes
        for ino, inode_pba in self.imap.items():
            inode = self._read_inode_at(inode_pba)
            if self.table.state(inode_pba) is BlockState.FREE:
                self.table.mark_live(inode_pba, ino, is_inode=True)
            pointers, indirect_pbas = self._load_pointers(inode)
            for pba in indirect_pbas:
                if self.table.state(pba) is BlockState.FREE:
                    self.table.mark_live(pba, ino, fbn=INDIRECT_FBN)
            for fbn, pba in enumerate(pointers):
                if self.table.state(pba) is BlockState.FREE:
                    self.table.mark_live(pba, ino, fbn=fbn)
            if self.device.is_block_heated(inode_pba):
                self.line_of_ino[ino] = self.device.line_of_block(inode_pba).start

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a checkpoint to the older of the two copies."""
        self._generation += 1
        heated = [(rec.start, rec.n_blocks) for rec in self.device.heated_lines]
        cp = Checkpoint(generation=self._generation, next_ino=self.next_ino,
                        tick=self.tick, imap=dict(self.imap),
                        heated_lines=heated)
        blocks = cp.to_blocks(self.sb.checkpoint_blocks)
        start = self._checkpoint_region(self._generation % 2)
        for offset, payload in enumerate(blocks):
            self._dev_write(start + offset, payload)

    # -- allocation -----------------------------------------------------------------

    def _segment_indices_writable(self) -> List[int]:
        out = []
        for seg in self.table.iter_segments():
            if seg.free > 0:
                out.append(seg.index)
        return out

    def _pick_write_segment(self) -> Optional[int]:
        """Choose the next segment for the log head.

        Prefers completely empty segments (classic LFS segment writes),
        then segments without heated blocks, then anything with room.
        Scans from the front so the log and the heated region (placed
        from the end under the *cluster* policy) grow towards each
        other.
        """
        empty = [seg.index for seg in self.table.empty_segments()]
        if empty:
            return empty[0]
        no_heat = [seg.index for seg in self.table.iter_segments()
                   if seg.free > 0 and seg.heated == 0]
        if no_heat:
            return no_heat[0]
        any_free = self._segment_indices_writable()
        return any_free[0] if any_free else None

    def _alloc_block(self) -> int:
        """Allocate one block at the log head, cleaning if needed."""
        pba = self._try_alloc_block()
        if pba is not None:
            return pba
        if self.config.auto_clean and not self._cleaning:
            from .cleaner import run_cleaner

            self._cleaning = True
            try:
                run_cleaner(self, max_segments=4)
            finally:
                self._cleaning = False
            pba = self._try_alloc_block()
            if pba is not None:
                return pba
        raise NoSpaceError("no writable blocks left (WMRM area exhausted)")

    def _try_alloc_block(self) -> Optional[int]:
        for _ in range(2):
            if self._cursor_segment is not None:
                seg = self.table.segments[self._cursor_segment]
                for pba in range(seg.start, seg.start + seg.size):
                    if self.table.state(pba) is BlockState.FREE:
                        return pba
            self._cursor_segment = self._pick_write_segment()
            if self._cursor_segment is None:
                return None
        return None

    # -- low-level file I/O ------------------------------------------------------------

    def _meta_sync(self) -> None:
        """Empty the metadata cache unless the medium is exactly as it
        was when the cache was stamped: any mutation this file system
        did not make itself (an attacker's raw write, a bulk erase, a
        heat, an adopted or patched state) shows as a moved epoch."""
        epoch = self.device.medium.mutation_epoch
        if epoch != self._meta_epoch:
            self._meta.clear()
            self._meta_epoch = epoch

    def _read_meta(self, pba: int) -> bytes:
        """Payload of an inode or directory block, read from the medium
        at most once per epoch stamp."""
        self._meta_sync()
        payload = self._meta.get(pba)
        if payload is None:
            payload = self._meta[pba] = self.device.read_block(pba)
        return payload

    def _dev_write(self, pba: int, payload: bytes) -> None:
        """Every magnetic write of the file system goes through here:
        the block's cached payload is dropped and the cache, synced
        before the write so it vouches for nothing foreign, is stamped
        past it.  A sector write touches only its own block's dots, so
        no other entry can have gone stale."""
        self._meta_sync()
        self.device.write_block(pba, payload)
        self._meta.pop(pba, None)
        self._meta_epoch = self.device.medium.mutation_epoch

    def _read_inode_at(self, pba: int) -> Inode:
        return Inode.unpack(self._read_meta(pba))

    def _read_inode(self, ino: int) -> Inode:
        pba = self.imap.get(ino)
        if pba is None:
            raise FileNotFoundError_(f"inode {ino} does not exist")
        return self._read_inode_at(pba)

    def _load_pointers(self, inode: Inode) -> Tuple[List[int], List[int]]:
        """All data-block PBAs of a file, plus its indirect-block PBAs."""
        pointers = list(inode.direct)
        indirect_pbas = list(inode.indirect)
        for pba in inode.indirect:
            pointers.extend(unpack_pointer_block(self.device.read_block(pba)))
        return pointers[:inode.n_blocks], indirect_pbas

    def _free_file_blocks(self, inode: Inode) -> None:
        """Mark a file's current blocks dead (on rewrite or delete)."""
        pointers, indirect_pbas = self._load_pointers(inode)
        for pba in pointers + indirect_pbas:
            if self.table.state(pba) is BlockState.LIVE:
                self.table.mark_dead(pba)

    def _write_data_blocks(self, ino: int, data: bytes) -> Tuple[List[int], List[int]]:
        """Append ``data`` to the log; returns (data_pbas, indirect_pbas).

        All-or-nothing: if allocation fails part-way the blocks written
        so far are rolled back to DEAD (reclaimable) so nothing leaks —
        the caller's old file version is still fully live.
        """
        n_blocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
        pbas: List[int] = []
        indirect_pbas: List[int] = []
        try:
            for fbn in range(n_blocks):
                chunk = data[fbn * BLOCK_SIZE:(fbn + 1) * BLOCK_SIZE]
                chunk += b"\x00" * (BLOCK_SIZE - len(chunk))
                pba = self._alloc_block()
                self._dev_write(pba, chunk)
                self.table.mark_live(pba, ino, fbn=fbn)
                self._touch_segment(pba)
                pbas.append(pba)
                self._stats["blocks_written"] += 1
            overflow = pbas[N_DIRECT:]
            for i in range(0, len(overflow), POINTERS_PER_INDIRECT):
                chunk_ptrs = overflow[i:i + POINTERS_PER_INDIRECT]
                pba = self._alloc_block()
                self._dev_write(pba, pack_pointer_block(chunk_ptrs))
                self.table.mark_live(pba, ino, fbn=INDIRECT_FBN)
                self._touch_segment(pba)
                indirect_pbas.append(pba)
                self._stats["blocks_written"] += 1
        except NoSpaceError:
            for pba in pbas + indirect_pbas:
                if self.table.state(pba) is BlockState.LIVE:
                    self.table.mark_dead(pba)
            raise
        return pbas, indirect_pbas

    def _write_inode(self, inode: Inode) -> int:
        """Append an inode block; updates the imap; returns its PBA."""
        old = self.imap.get(inode.ino)
        pba = self._alloc_block()
        self._dev_write(pba, inode.pack())
        self.table.mark_live(pba, inode.ino, is_inode=True)
        self._touch_segment(pba)
        self.imap[inode.ino] = pba
        self._stats["blocks_written"] += 1
        if old is not None and self.table.state(old) is BlockState.LIVE:
            self.table.mark_dead(old)
        return pba

    def _write_file_blocks(self, inode: Inode, data: bytes) -> None:
        """Replace a file's contents.

        New blocks are written *before* the old ones are marked dead
        (the log-structured no-overwrite discipline): a failure mid-way
        leaves the old version fully intact and live.
        """
        if len(data) > MAX_FILE_SIZE:
            raise FileSystemError(
                f"file too large: {len(data)} > {MAX_FILE_SIZE} bytes")
        old_inode: Optional[Inode] = None
        if self.imap.get(inode.ino) is not None:
            try:
                old_inode = self._read_inode(inode.ino)
            except (FileNotFoundError_, ReadError):
                old_inode = None
        pbas, indirect = self._write_data_blocks(inode.ino, data)
        inode.size = len(data)
        inode.direct = pbas[:N_DIRECT]
        inode.indirect = indirect
        inode.mtime = self.tick
        self._write_inode(inode)
        if old_inode is not None:
            self._free_file_blocks(old_inode)

    def _touch_segment(self, pba: int) -> None:
        seg = self.table.segment_of(pba)
        seg.mtime = self.tick  # type: ignore[attr-defined]

    def _allocate_inode(self, ftype: FileType, name_hint: str) -> Inode:
        ino = self.next_ino
        self.next_ino += 1
        return Inode(ino=ino, ftype=ftype, name_hint=name_hint,
                     mtime=self.tick)

    # -- path resolution -----------------------------------------------------------------

    def _lookup(self, path: str) -> Tuple[int, Inode]:
        """Resolve ``path`` to (ino, inode)."""
        parts = split_path(path)
        ino = ROOT_INO
        inode = self._read_inode(ino)
        for part in parts:
            if inode.ftype is not FileType.DIRECTORY:
                raise NotADirectoryError_(f"{part!r} reached via non-directory")
            entries = self._dir_entries(inode)
            if part not in entries:
                raise FileNotFoundError_(f"no such file: {path!r}")
            _ftype, ino = entries[part]
            inode = self._read_inode(ino)
        return ino, inode

    def _lookup_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns
        (parent_inode, basename)."""
        parts = split_path(path)
        if not parts:
            raise FileSystemError("the root directory has no parent")
        parent_path = "/" + "/".join(parts[:-1])
        _ino, parent = self._lookup(parent_path)
        if parent.ftype is not FileType.DIRECTORY:
            raise NotADirectoryError_(f"{parent_path!r} is not a directory")
        return parent, parts[-1]

    def _read_content(self, inode: Inode) -> bytes:
        pointers, _ = self._load_pointers(inode)
        chunks = [self.device.read_block(pba) for pba in pointers]
        return b"".join(chunks)[:inode.size]

    def _dir_entries(self, inode: Inode) -> Dict[str, Tuple[FileType, int]]:
        pointers, _ = self._load_pointers(inode)
        content = b"".join(self._read_meta(pba) for pba in pointers)
        return unpack_entries(content[:inode.size])

    def _update_dir(self, dir_inode: Inode,
                    entries: Dict[str, Tuple[FileType, int]]) -> None:
        if self.is_ino_heated(dir_inode.ino):
            raise ImmutableFileError(
                f"directory inode {dir_inode.ino} is heated and immutable")
        self._write_file_blocks(dir_inode, pack_entries(entries))

    # -- public API -------------------------------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> FileStat:
        """Create a regular file with ``data``."""
        self.tick += 1
        parent, name = self._lookup_parent(path)
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExistsError_(f"file exists: {path!r}")
        inode = self._allocate_inode(FileType.REGULAR, name_hint=name)
        self._write_file_blocks(inode, data)
        entries[name] = (FileType.REGULAR, inode.ino)
        self._update_dir(parent, entries)
        return self.stat(path)

    def mkdir(self, path: str) -> FileStat:
        """Create a directory."""
        self.tick += 1
        parent, name = self._lookup_parent(path)
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExistsError_(f"file exists: {path!r}")
        inode = self._allocate_inode(FileType.DIRECTORY, name_hint=name)
        self._write_file_blocks(inode, pack_entries({}))
        entries[name] = (FileType.DIRECTORY, inode.ino)
        self._update_dir(parent, entries)
        return self.stat(path)

    def write(self, path: str, data: bytes) -> FileStat:
        """Replace the contents of an existing regular file."""
        self.tick += 1
        ino, inode = self._lookup(path)
        if inode.ftype is not FileType.REGULAR:
            raise FileSystemError(f"not a regular file: {path!r}")
        if self.is_ino_heated(ino):
            raise ImmutableFileError(f"{path!r} is heated and immutable")
        self._write_file_blocks(inode, data)
        return self.stat(path)

    def append(self, path: str, data: bytes) -> FileStat:
        """Append ``data`` to an existing regular file."""
        existing = self.read(path)
        return self.write(path, existing + data)

    def read(self, path: str) -> bytes:
        """Read a whole file (works for heated files too — their data
        blocks are still read magnetically)."""
        _ino, inode = self._lookup(path)
        if inode.ftype is not FileType.REGULAR:
            raise FileSystemError(f"not a regular file: {path!r}")
        return self._read_content(inode)

    def listdir(self, path: str) -> List[str]:
        """Names inside a directory."""
        _ino, inode = self._lookup(path)
        if inode.ftype is not FileType.DIRECTORY:
            raise NotADirectoryError_(f"not a directory: {path!r}")
        return sorted(self._dir_entries(inode))

    def unlink(self, path: str) -> None:
        """Remove a file (refused for heated files: the link count
        lives inside the heated line — Section 5.2's rm analysis)."""
        self.tick += 1
        ino, inode = self._lookup(path)
        if inode.ftype is FileType.DIRECTORY:
            raise FileSystemError("use rmdir for directories")
        if self.is_ino_heated(ino):
            raise ImmutableFileError(
                f"cannot unlink {path!r}: its inode is inside a heated line")
        parent, name = self._lookup_parent(path)
        entries = self._dir_entries(parent)
        del entries[name]
        self._update_dir(parent, entries)
        inode.link_count -= 1
        if inode.link_count <= 0:
            self._free_file_blocks(inode)
            inode_pba = self.imap.pop(ino)
            if self.table.state(inode_pba) is BlockState.LIVE:
                self.table.mark_dead(inode_pba)
        else:
            self._write_inode(inode)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self.tick += 1
        ino, inode = self._lookup(path)
        if inode.ftype is not FileType.DIRECTORY:
            raise NotADirectoryError_(f"not a directory: {path!r}")
        if ino == ROOT_INO:
            raise FileSystemError("cannot remove the root directory")
        if self._dir_entries(inode):
            raise DirectoryNotEmptyError(f"directory not empty: {path!r}")
        if self.is_ino_heated(ino):
            raise ImmutableFileError(f"{path!r} is heated and immutable")
        parent, name = self._lookup_parent(path)
        entries = self._dir_entries(parent)
        del entries[name]
        self._update_dir(parent, entries)
        self._free_file_blocks(inode)
        inode_pba = self.imap.pop(ino)
        if self.table.state(inode_pba) is BlockState.LIVE:
            self.table.mark_dead(inode_pba)

    def link(self, src: str, dst: str) -> None:
        """Hard-link ``dst`` to the file at ``src`` (refused for heated
        files: the link count is tamper-evident — Section 5.2)."""
        self.tick += 1
        ino, inode = self._lookup(src)
        if inode.ftype is not FileType.REGULAR:
            raise FileSystemError("can only hard-link regular files")
        if self.is_ino_heated(ino):
            raise ImmutableFileError(
                f"cannot link {src!r}: its inode is inside a heated line")
        parent, name = self._lookup_parent(dst)
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExistsError_(f"file exists: {dst!r}")
        inode.link_count += 1
        self._write_inode(inode)
        entries[name] = (FileType.REGULAR, ino)
        self._update_dir(parent, entries)

    def stat(self, path: str) -> FileStat:
        """Metadata of a file or directory."""
        ino, inode = self._lookup(path)
        heated = self.is_ino_heated(ino)
        return FileStat(path=path, ino=ino, ftype=inode.ftype,
                        size=inode.size, link_count=inode.link_count,
                        mtime=inode.mtime, heated=heated,
                        line_start=self.line_of_ino.get(ino))

    def is_ino_heated(self, ino: int) -> bool:
        """True when the file's inode lies inside a heated line."""
        pba = self.imap.get(ino)
        return pba is not None and self.device.is_block_heated(pba)

    # -- the heat operation ---------------------------------------------------------------------

    def heat_file(self, path: str, timestamp: Optional[int] = None) -> LineRecord:
        """Make a file tamper-evident.

        The file is clustered into a fresh aligned line — [hash block,
        inode, indirect blocks, data blocks, zero padding] — and the
        device's WO heat operation seals it.  The old scattered copies
        become dead blocks for the cleaner.
        """
        self.tick += 1
        if timestamp is None:
            timestamp = self.tick
        ino, inode = self._lookup(path)
        if self.is_ino_heated(ino):
            raise ImmutableFileError(f"{path!r} is already heated")
        data = self._read_content(inode)

        n_data = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
        n_indirect = 0
        if n_data > N_DIRECT:
            n_indirect = (n_data - N_DIRECT + POINTERS_PER_INDIRECT - 1) \
                // POINTERS_PER_INDIRECT
        payload_blocks = 1 + n_indirect + n_data  # inode + indirect + data
        line_len = 2
        while line_len < payload_blocks + 1:  # +1 for the hash block
            line_len *= 2

        start = self._find_line_extent(line_len)
        if start is None and self.config.auto_clean:
            from .cleaner import run_cleaner

            run_cleaner(self, max_segments=8)
            start = self._find_line_extent(line_len)
        if start is None:
            raise NoSpaceError(
                f"no free aligned extent of {line_len} blocks for the line")

        # lay the line out: block 0 is left for the hash (electrical),
        # then inode, indirect blocks, data, zero padding
        data_pbas = [start + 2 + n_indirect + i for i in range(n_data)]
        indirect_pbas = [start + 2 + i for i in range(n_indirect)]
        inode_pba = start + 1

        for i, pba in enumerate(data_pbas):
            chunk = data[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE]
            chunk += b"\x00" * (BLOCK_SIZE - len(chunk))
            self._dev_write(pba, chunk)
            self._stats["blocks_written"] += 1
        for i, pba in enumerate(indirect_pbas):
            ptrs = data_pbas[N_DIRECT + i * POINTERS_PER_INDIRECT:
                             N_DIRECT + (i + 1) * POINTERS_PER_INDIRECT]
            self._dev_write(pba, pack_pointer_block(ptrs))
            self._stats["blocks_written"] += 1
        new_inode = Inode(ino=ino, ftype=inode.ftype,
                          link_count=inode.link_count, size=len(data),
                          mtime=self.tick, name_hint=inode.name_hint,
                          direct=data_pbas[:N_DIRECT],
                          indirect=indirect_pbas, flags=inode.flags)
        self._dev_write(inode_pba, new_inode.pack())
        self._stats["blocks_written"] += 1
        for pba in range(start + 1 + payload_blocks, start + line_len):
            self._dev_write(pba, b"\x00" * BLOCK_SIZE)
            self._stats["blocks_written"] += 1

        record = self.device.heat_line(start, line_len, timestamp=timestamp)
        if not self.device.medium.config.collateral_heating:
            # nothing foreign since the inode write above stamped the
            # cache, and the pulses landed on the hash block's dots only
            self._meta_epoch = self.device.medium.mutation_epoch

        # retire the old copies, take ownership of the new ones
        self._free_file_blocks(inode)
        old_inode_pba = self.imap.get(ino)
        if old_inode_pba is not None and \
                self.table.state(old_inode_pba) is BlockState.LIVE:
            self.table.mark_dead(old_inode_pba)
        for pba in range(start, start + line_len):
            self.table.mark_heated(pba)
        self.imap[ino] = inode_pba
        self.line_of_ino[ino] = start
        self._stats["lines_heated"] += 1
        return record

    def _extent_usable(self, start: int, line_len: int) -> bool:
        """Free, no bad blocks, and a heat-capable head block."""
        if start in self.device.fragile_blocks:
            return False
        return all(self.table.state(p) is BlockState.FREE
                   for p in range(start, start + line_len))

    def _find_line_extent(self, line_len: int) -> Optional[int]:
        """Aligned free extent for a heated line, by placement policy."""
        if self.config.heat_placement == "naive":
            pba = 0
            while pba + line_len <= self.table.total_blocks:
                if self._extent_usable(pba, line_len):
                    return pba
                pba += line_len
            return None
        # cluster: scan from the end of the device towards the front
        total = self.table.total_blocks
        pba = (total // line_len - 1) * line_len
        while pba >= self._reserved_blocks:
            if self._extent_usable(pba, line_len):
                return pba
            pba -= line_len
        return None

    def _lookup_ino(self, path: str) -> int:
        """Resolve ``path`` to its inode number without parsing the
        final inode — verification must work even when an attacker has
        destroyed the inode block itself."""
        parts = split_path(path)
        if not parts:
            return ROOT_INO
        parent, name = self._lookup_parent(path)
        entries = self._dir_entries(parent)
        if name not in entries:
            raise FileNotFoundError_(f"no such file: {path!r}")
        _ftype, ino = entries[name]
        return ino

    def verify_file(self, path: str) -> VerificationResult:
        """Verify a heated file's line against its stored hash.

        Only the *directory entry* is needed to locate the line, so a
        smashed inode (itself inside the heated line) cannot hide the
        evidence — verification still runs and reports the mismatch.
        """
        ino = self._lookup_ino(path)
        start = self.line_of_ino.get(ino)
        if start is None:
            raise FileSystemError(f"{path!r} is not heated")
        return self.device.verify_line(start)

    def verify_all_files(self) -> Dict[str, VerificationResult]:
        """Verify every heated file; keys are ``ino:name_hint``."""
        out = {}
        for ino, start in self.line_of_ino.items():
            try:
                inode = self._read_inode(ino)
                label = f"{ino}:{inode.name_hint}"
            except (FileNotFoundError_, ReadError):
                label = f"{ino}:?"
            out[label] = self.device.verify_line(start)
        return out

    # -- statistics -------------------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Operational statistics and space accounting."""
        counts = self.table.counts()
        out: Dict[str, float] = dict(self._stats)
        out.update({f"blocks_{k}": v for k, v in counts.items()})
        out["device_time_s"] = self.device.account.elapsed
        return out

    def free_space_blocks(self) -> int:
        """Blocks immediately allocatable (FREE)."""
        return self.table.free_blocks()
