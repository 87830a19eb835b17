"""Anti-fuse write-once memory emulator (Section 9 future work).

"The next step would be to develop a time-accurate emulator for the
device ... The time-accurate emulator could probably be built using
anti-fuse based write once semiconductor memory technology as used in
FPGAs."

This module builds that emulator in software: an anti-fuse bit starts
at 0 and can only ever be *blown* to 1 — electrically the opposite
polarity of our magnetic dots (which start un-heated), but the same
one-way lattice, so the Molnar PROM-style Manchester cells carry over
with ``00`` = unused, ``10`` = 0, ``01`` = 1 and ``11`` = tamper.

:class:`AntifuseSEROEmulator` exposes the same operational subset as
:class:`~repro.device.sero.SERODevice` — ``read_block`` /
``write_block`` / ``heat_line`` / ``verify_line`` — with WMRM blocks
in ordinary RAM and the write-once hash blocks in anti-fuse cells.
The cross-validation test suite replays identical workloads against
the simulator and the emulator and requires identical verify
verdicts, which is exactly the validation role the paper assigns to
the emulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..crypto.hashutil import line_hash
from ..crypto.manchester import bytes_to_bits
from ..errors import AlignmentError, HeatError, ReadError, WriteError
from ..units import is_power_of_two
from .sector import BLOCK_SIZE, E_PAYLOAD_BYTES, ElectricalPayload
from .sero import LineRecord, VerificationResult, VerifyStatus


class AntifuseArray:
    """A bank of one-way bits: 0 -> 1 transitions only.

    The physical contract of anti-fuse memory — there is deliberately
    no API that can clear a bit.
    """

    def __init__(self, nbits: int) -> None:
        self._bits = np.zeros(nbits, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self._bits)

    def blow(self, index: int) -> None:
        """Blow fuse ``index`` (idempotent, irreversible)."""
        if not 0 <= index < len(self._bits):
            raise IndexError(f"fuse index {index} out of range")
        self._bits[index] = 1

    def read(self, index: int) -> int:
        """Read one fuse."""
        if not 0 <= index < len(self._bits):
            raise IndexError(f"fuse index {index} out of range")
        return int(self._bits[index])

    def read_span(self, start: int, end: int) -> np.ndarray:
        """Read fuses [start, end)."""
        if not 0 <= start <= end <= len(self._bits):
            raise IndexError("fuse span out of range")
        return self._bits[start:end].copy()

    def blown_count(self) -> int:
        """Total blown fuses."""
        return int(self._bits.sum())


#: Manchester-over-antifuse cell meanings (1 = blown).
_CELL_UNUSED = (0, 0)
_CELL_ZERO = (1, 0)
_CELL_ONE = (0, 1)
_CELL_TAMPERED = (1, 1)


@dataclass
class AntifuseSEROEmulator:
    """SERO semantics over RAM blocks + anti-fuse hash cells.

    Args:
        total_blocks: emulated device capacity.
    """

    total_blocks: int
    include_addresses_in_hash: bool = True
    _ram: Dict[int, bytes] = field(default_factory=dict)
    _lines: Dict[int, LineRecord] = field(default_factory=dict)
    _block_to_line: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one anti-fuse cell pair per electrical payload bit, per block
        self._fuses = AntifuseArray(self.total_blocks * E_PAYLOAD_BYTES * 8 * 2)

    # -- WMRM blocks ------------------------------------------------------------

    def _check(self, pba: int) -> None:
        if not 0 <= pba < self.total_blocks:
            raise ReadError(f"block {pba} out of range")

    def read_block(self, pba: int) -> bytes:
        """Read a 512-byte block."""
        self._check(pba)
        line = self.line_of_block(pba)
        if line is not None and pba == line.start:
            raise ReadError("block 0 of a line lives in anti-fuse cells")
        if pba not in self._ram:
            raise ReadError(f"block {pba} never written")
        return self._ram[pba]

    def write_block(self, pba: int, payload: bytes) -> None:
        """Write a 512-byte block (refused inside heated lines)."""
        self._check(pba)
        if len(payload) != BLOCK_SIZE:
            raise WriteError(f"payload must be {BLOCK_SIZE} bytes")
        if self.is_block_heated(pba):
            raise WriteError(f"block {pba} is inside a write-once line")
        self._ram[pba] = bytes(payload)

    def is_block_heated(self, pba: int) -> bool:
        """True inside a sealed line."""
        return pba in self._block_to_line

    def line_of_block(self, pba: int) -> Optional[LineRecord]:
        """The sealed line containing ``pba``, if any."""
        start = self._block_to_line.get(pba)
        return self._lines.get(start) if start is not None else None

    # -- anti-fuse hash cells -----------------------------------------------------

    def _cell_base(self, pba: int) -> int:
        return pba * E_PAYLOAD_BYTES * 8 * 2

    def _write_cells(self, pba: int, payload: bytes) -> None:
        base = self._cell_base(pba)
        for i, bit in enumerate(bytes_to_bits(payload)):
            cell = base + 2 * i
            # blow exactly one fuse per cell: first for 0, second for 1
            self._fuses.blow(cell if bit == 0 else cell + 1)

    def _read_cells(self, pba: int):
        base = self._cell_base(pba)
        nbits = E_PAYLOAD_BYTES * 8
        raw = self._fuses.read_span(base, base + 2 * nbits)
        bits: List[Optional[int]] = []
        tampered: List[int] = []
        unused = 0
        for i in range(nbits):
            pair = (int(raw[2 * i]), int(raw[2 * i + 1]))
            if pair == _CELL_ZERO:
                bits.append(0)
            elif pair == _CELL_ONE:
                bits.append(1)
            elif pair == _CELL_TAMPERED:
                bits.append(None)
                tampered.append(i)
            else:
                bits.append(None)
                unused += 1
        return bits, tampered, unused == nbits

    # -- the SERO operations ----------------------------------------------------------

    def heat_line(self, start: int, n_blocks: int, timestamp: int = 0) -> LineRecord:
        """Seal a line: hash the data blocks, blow the hash into fuses."""
        if n_blocks < 2 or not is_power_of_two(n_blocks):
            raise AlignmentError("line length must be a power of two >= 2")
        if start % n_blocks:
            raise AlignmentError("line start must be aligned")
        if start + n_blocks > self.total_blocks:
            raise AlignmentError("line extends past end of device")
        for pba in range(start, start + n_blocks):
            existing = self.line_of_block(pba)
            if existing is not None and (existing.start != start or
                                         existing.n_blocks != n_blocks):
                raise AlignmentError("line overlaps an existing line")
        addresses = list(range(start + 1, start + n_blocks))
        blocks = [self.read_block(pba) for pba in addresses]
        digest = line_hash(addresses, blocks,
                           include_addresses=self.include_addresses_in_hash)
        payload = ElectricalPayload(
            line_start=start, n_blocks_log2=n_blocks.bit_length() - 1,
            line_hash=digest, timestamp=timestamp).pack()
        self._write_cells(start, payload)
        bits, tampered, _virgin = self._read_cells(start)
        if tampered or None in bits:
            raise HeatError("anti-fuse verify failed (line re-sealed with "
                            "different data?)")
        record = LineRecord(start=start, n_blocks=n_blocks,
                            line_hash=digest, timestamp=timestamp)
        self._lines[start] = record
        for pba in range(start, start + n_blocks):
            self._block_to_line[pba] = start
        return record

    def verify_line(self, start: int) -> VerificationResult:
        """Verify a sealed line, with the same verdict taxonomy as the
        patterned-medium device."""
        bits, tampered, virgin = self._read_cells(start)
        if tampered:
            return VerificationResult(status=VerifyStatus.CELL_TAMPERED,
                                      start=start, tampered_cells=tampered)
        if virgin:
            return VerificationResult(status=VerifyStatus.NOT_A_LINE,
                                      start=start)
        if None in bits:
            return VerificationResult(status=VerifyStatus.UNREADABLE,
                                      start=start)
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for bit in bits[i:i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        try:
            meta = ElectricalPayload.unpack(bytes(out))
        except ReadError:
            return VerificationResult(status=VerifyStatus.UNREADABLE,
                                      start=start)
        n_blocks = 1 << meta.n_blocks_log2
        addresses = list(range(start + 1, start + n_blocks))
        try:
            blocks = [self.read_block(pba) for pba in addresses]
        except ReadError:
            return VerificationResult(status=VerifyStatus.UNREADABLE,
                                      start=start, stored_hash=meta.line_hash)
        digest = line_hash(addresses, blocks,
                           include_addresses=self.include_addresses_in_hash)
        if digest != meta.line_hash:
            return VerificationResult(status=VerifyStatus.HASH_MISMATCH,
                                      start=start, stored_hash=meta.line_hash,
                                      computed_hash=digest)
        return VerificationResult(status=VerifyStatus.INTACT, start=start,
                                  stored_hash=meta.line_hash,
                                  computed_hash=digest)

    # -- attacker surface ----------------------------------------------------------

    def tamper_blow_hash_fuse(self, start: int, cell: int) -> None:
        """Attacker primitive: blow the *other* fuse of hash cell
        ``cell``, producing the illegal ``11`` pattern (or a silent
        flip if the cell was unused)."""
        base = self._cell_base(start) + 2 * cell
        if self._fuses.read(base):
            self._fuses.blow(base + 1)
        else:
            self._fuses.blow(base)

    def tamper_rewrite_data(self, pba: int, payload: bytes) -> None:
        """Attacker primitive: overwrite RAM behind the write protect."""
        self._ram[pba] = (payload + b"\x00" * BLOCK_SIZE)[:BLOCK_SIZE]
