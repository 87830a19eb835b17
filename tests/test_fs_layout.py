"""Superblock and checkpoint serialisation tests."""

import pytest

from repro.device.sector import BLOCK_SIZE
from repro.errors import FileSystemError, ReadError
from repro.fs.layout import Checkpoint, Superblock


def test_superblock_roundtrip():
    sb = Superblock(total_blocks=1024, segment_blocks=16,
                    checkpoint_start=1, checkpoint_blocks=7)
    out = Superblock.unpack(sb.pack())
    assert out == sb


def test_superblock_is_one_block():
    sb = Superblock(1, 1, 1, 1)
    assert len(sb.pack()) == BLOCK_SIZE


def test_superblock_crc():
    packed = bytearray(Superblock(1, 1, 1, 1).pack())
    packed[10] ^= 1
    with pytest.raises(ReadError):
        Superblock.unpack(bytes(packed))


def test_superblock_magic():
    with pytest.raises(ReadError):
        Superblock.unpack(b"\x00" * BLOCK_SIZE)


def test_checkpoint_roundtrip():
    cp = Checkpoint(generation=9, next_ino=42, tick=100,
                    imap={1: 10, 2: 20, 77: 99})
    out = Checkpoint.unpack(cp.pack())
    assert out.generation == 9
    assert out.next_ino == 42
    assert out.tick == 100
    assert out.imap == cp.imap


def test_checkpoint_empty_maps():
    cp = Checkpoint(generation=1, next_ino=2, tick=0)
    out = Checkpoint.unpack(cp.pack())
    assert out.imap == {}


def test_checkpoint_crc_detects_corruption():
    raw = bytearray(Checkpoint(generation=1, next_ino=2, tick=3).pack())
    raw[12] ^= 0xFF
    with pytest.raises(ReadError):
        Checkpoint.unpack(bytes(raw))


def test_checkpoint_truncation_detected():
    raw = Checkpoint(generation=1, next_ino=2, tick=3).pack()
    with pytest.raises(ReadError):
        Checkpoint.unpack(raw[:-2])


def test_checkpoint_block_split_roundtrip():
    imap = {i: i * 7 for i in range(1, 120)}
    cp = Checkpoint(generation=5, next_ino=200, tick=9, imap=imap)
    blocks = cp.to_blocks(capacity_blocks=16)
    assert all(len(b) == BLOCK_SIZE for b in blocks)
    out = Checkpoint.from_blocks(blocks)
    assert out.imap == imap


def test_checkpoint_overflow_raises():
    imap = {i: i for i in range(1, 2000)}
    cp = Checkpoint(generation=1, next_ino=1, tick=1, imap=imap)
    with pytest.raises(FileSystemError):
        cp.to_blocks(capacity_blocks=2)
