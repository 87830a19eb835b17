"""Sector framing: 512-byte blocks with header, CRC and ECC.

Magnetic frames (Section 3, "Sector operations"): a block is one
512-byte sector wrapped with

* a 14-byte header — magic, the block's own *physical* address (so a
  frame copied elsewhere is self-evidently out of place, see the
  addressing discussion of Sections 3 and 5.2), flags, header CRC-16;
* a CRC-32 over header+payload;
* Hamming(72,64) SECDED over the whole padded frame.

The framed sector occupies 4824 dots — 17.8% overhead over the 4096
payload bits, the paper's "about 15%" budget.

Electrical (hash) blocks use a different on-dot format: the first 4096
dots of the block span hold 2048 Manchester cells = 256 bytes of
write-once payload (Fig 3: 512 bits of Manchester-encoded SHA-256 +
3584 bits of metadata space).  The payload layout is defined by
:class:`ElectricalPayload`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..crypto.crc import crc16_ccitt, crc32
from ..crypto.hashutil import HASH_SIZE
from ..errors import ReadError, WriteError
from . import ecc

BLOCK_SIZE = 512
"""Sector payload size [bytes]."""

HEADER_MAGIC = 0x5E20  # "SERO"
HEADER_BYTES = 14
_PAD_BYTES = 6
FRAME_BYTES = HEADER_BYTES + BLOCK_SIZE + 4 + _PAD_BYTES  # 536
FRAME_BITS = ecc.codeword_length(FRAME_BYTES)  # 4824
DOTS_PER_BLOCK = FRAME_BITS
"""Physical dots one block consumes (payload + 17.8% overhead)."""

E_REGION_DOTS = 4096
"""Dots of the block span used by an electrical (hash) block."""

E_CELLS = E_REGION_DOTS // 2
E_PAYLOAD_BYTES = E_CELLS // 8  # 256
E_MAGIC = 0xE5E0


def _frame_bytes(pba: int, payload: bytes) -> bytes:
    """The raw (pre-ECC) frame bytes for block ``pba``."""
    if len(payload) != BLOCK_SIZE:
        raise WriteError(f"payload must be {BLOCK_SIZE} bytes, got {len(payload)}")
    if pba < 0:
        raise WriteError("physical block address must be non-negative")
    header_wo_crc = struct.pack(">HQH", HEADER_MAGIC, pba, 0)
    hcrc = crc16_ccitt(header_wo_crc)
    header = header_wo_crc + struct.pack(">H", hcrc)
    body = header + payload
    pcrc = crc32(body)
    frame = body + struct.pack(">I", pcrc) + b"\x00" * _PAD_BYTES
    assert len(frame) == FRAME_BYTES
    return frame


def encode_frame(pba: int, payload: bytes) -> np.ndarray:
    """Encode a magnetic sector frame for block ``pba``.

    Returns the 4824-element 0/1 dot pattern.
    """
    return ecc.encode(_frame_bytes(pba, payload))


def encode_frame_run(first_pba: int, payloads: "list[bytes]") -> np.ndarray:
    """Encode frames for consecutive blocks starting at ``first_pba``.

    The SECDED code treats every 8-byte word independently, so one ECC
    pass over the joined frame bytes is bit-identical to per-frame
    :func:`encode_frame` calls; returns the concatenated dot pattern.
    """
    frames = b"".join([_frame_bytes(first_pba + i, payload)
                       for i, payload in enumerate(payloads)])
    return ecc.encode(frames)


@dataclass
class DecodedFrame:
    """A successfully decoded magnetic frame.

    Attributes:
        pba: physical block address stored in the header.
        payload: the 512-byte sector payload.
        corrected_bits: ECC corrections applied during decode.
    """

    pba: int
    payload: bytes
    corrected_bits: int


def _parse_frame(frame: bytes, corrected: int,
                 expected_pba: Optional[int]) -> DecodedFrame:
    """Validate decoded frame bytes (magic, CRCs, address binding)."""
    magic, pba, _flags = struct.unpack(">HQH", frame[:12])
    (hcrc,) = struct.unpack(">H", frame[12:14])
    if magic != HEADER_MAGIC:
        raise ReadError("bad sector magic (unwritten, erased or heated block?)")
    if crc16_ccitt(frame[:12]) != hcrc:
        raise ReadError("sector header CRC mismatch")
    payload = frame[HEADER_BYTES:HEADER_BYTES + BLOCK_SIZE]
    (pcrc,) = struct.unpack(
        ">I", frame[HEADER_BYTES + BLOCK_SIZE:HEADER_BYTES + BLOCK_SIZE + 4])
    if crc32(frame[:HEADER_BYTES + BLOCK_SIZE]) != pcrc:
        raise ReadError("sector payload CRC mismatch")
    if expected_pba is not None and pba != expected_pba:
        raise ReadError(
            f"sector address mismatch: header says {pba}, device read "
            f"from {expected_pba} (data is not in the right place)")
    return DecodedFrame(pba=pba, payload=payload, corrected_bits=corrected)


def decode_frame(bits: np.ndarray, expected_pba: Optional[int] = None) -> DecodedFrame:
    """Decode a dot pattern back to a sector frame.

    Raises :class:`~repro.errors.ReadError` on ECC/CRC/magic failure or
    when the header address disagrees with ``expected_pba`` — the check
    that lets the file system "recognize when data is in the right
    place" (Section 3).
    """
    if len(bits) != FRAME_BITS:
        raise ReadError(f"frame must be {FRAME_BITS} bits, got {len(bits)}")
    result = ecc.decode(bits)
    return _parse_frame(result.data, result.corrected, expected_pba)


def decode_frame_run(bits: np.ndarray, first_pba: int) -> "list[DecodedFrame]":
    """Decode the dot pattern of a run of consecutive blocks.

    One ECC pass over all frames (codewords are independent 8-byte
    words), then the per-frame header/CRC/address checks.  Any ECC,
    framing or address failure raises :class:`~repro.errors.ReadError`,
    exactly as the first failing per-block :func:`decode_frame` would.
    Each returned frame's ``corrected_bits`` carries the *run-wide*
    correction count (the ECC pass is shared).
    """
    if len(bits) % FRAME_BITS:
        raise ReadError(f"run must be a multiple of {FRAME_BITS} bits")
    result = ecc.decode(bits)
    count = len(bits) // FRAME_BITS
    return [_parse_frame(
        result.data[i * FRAME_BYTES:(i + 1) * FRAME_BYTES],
        result.corrected, first_pba + i) for i in range(count)]


def decode_frame_runs(
        runs: "list[tuple[np.ndarray, int]]"
) -> "list[Optional[list[DecodedFrame]]]":
    """Decode many runs at once: one ECC pass over all their frames.

    ``runs`` holds ``(bits, first_pba)`` pairs as
    :func:`decode_frame_run` takes them.  Returns, per run, its frames,
    or None where :func:`decode_frame_run` would raise
    :class:`~repro.errors.ReadError`.  An uncorrectable word anywhere
    fails the shared pass, so the decode is then redone per run (it is
    pure) and only the runs that hold one come back None.  Each
    frame's ``corrected_bits`` carries the count of the ECC pass that
    decoded it.
    """
    if not runs:
        return []
    try:
        result = ecc.decode(np.concatenate([bits for bits, _ in runs]))
    except ReadError:
        return [_frames_or_none(bits, first) for bits, first in runs]
    decoded: "list[Optional[list[DecodedFrame]]]" = []
    offset = 0
    for bits, first in runs:
        count = len(bits) // FRAME_BITS
        try:
            decoded.append([_parse_frame(
                result.data[(offset + i) * FRAME_BYTES:
                            (offset + i + 1) * FRAME_BYTES],
                result.corrected, first + i) for i in range(count)])
        except ReadError:
            decoded.append(None)
        offset += count
    return decoded


def _frames_or_none(bits: np.ndarray,
                    first_pba: int) -> "Optional[list[DecodedFrame]]":
    try:
        return decode_frame_run(bits, first_pba)
    except ReadError:
        return None


# ---------------------------------------------------------------------------
# Electrical (write-once) payload format


@dataclass
class ElectricalPayload:
    """Contents of a heated line's block 0 (Fig 3).

    Attributes:
        line_start: PBA of the line's first block (this block).
        n_blocks_log2: line length exponent N (the line spans
            ``2**N`` blocks).
        line_hash: SHA-256 over the line's data blocks + addresses.
        timestamp: heat time [integer seconds] recorded in metadata.
        flags: reserved metadata flags.
    """

    line_start: int
    n_blocks_log2: int
    line_hash: bytes
    timestamp: int = 0
    flags: int = 0

    _HEAD = ">HBBQQH"  # magic, version, n_log2, line_start, timestamp, flags
    _VERSION = 1

    def pack(self) -> bytes:
        """Serialise to the fixed 256-byte electrical payload."""
        if len(self.line_hash) != HASH_SIZE:
            raise WriteError(f"line hash must be {HASH_SIZE} bytes")
        head = struct.pack(self._HEAD, E_MAGIC, self._VERSION,
                           self.n_blocks_log2, self.line_start,
                           self.timestamp, self.flags)
        body = head + self.line_hash
        free = E_PAYLOAD_BYTES - len(body) - 4
        body += b"\x00" * free
        body += struct.pack(">I", crc32(body))
        assert len(body) == E_PAYLOAD_BYTES
        return body

    @classmethod
    def unpack(cls, payload: bytes) -> "ElectricalPayload":
        """Parse a 256-byte electrical payload.

        Raises :class:`~repro.errors.ReadError` on bad magic/CRC.
        """
        if len(payload) != E_PAYLOAD_BYTES:
            raise ReadError(f"electrical payload must be {E_PAYLOAD_BYTES} bytes")
        (stored_crc,) = struct.unpack(">I", payload[-4:])
        if crc32(payload[:-4]) != stored_crc:
            raise ReadError("electrical payload CRC mismatch")
        head_size = struct.calcsize(cls._HEAD)
        magic, version, n_log2, line_start, timestamp, flags = struct.unpack(
            cls._HEAD, payload[:head_size])
        if magic != E_MAGIC:
            raise ReadError("bad electrical payload magic")
        if version != cls._VERSION:
            raise ReadError(f"unsupported electrical payload version {version}")
        line_hash = payload[head_size:head_size + HASH_SIZE]
        return cls(line_start=line_start, n_blocks_log2=n_log2,
                   line_hash=line_hash, timestamp=timestamp, flags=flags)
