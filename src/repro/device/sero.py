"""The SERO device: WMRM block storage with a write-once heat operation.

This class is the paper's Section 3 in executable form.  It offers the
six high-level sector operations built from the four bit operations:

* ``read_block`` / ``write_block`` — magnetic sector ops (mrs / mws),
* ``ers_block`` / ``ews_block`` — electrical sector ops (ers / ews),
* ``heat_line`` — the atomic WO operation: hash 2**N - 1 data blocks
  (bound to their physical addresses) and burn the Manchester-encoded
  hash into block 0,
* ``verify_line`` — recompute and compare, classifying the result as
  intact or as one of the tamper-evidence conditions.

Driver policy (what a well-behaved host does) is enforced here: writes
to heated lines are refused, electrically written blocks are never read
magnetically, physical addressing is used throughout.  Attackers do not
go through this class — :mod:`repro.security.attacks` manipulates the
medium directly, exactly like the paper's insider who connects the
device to a laptop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.hashutil import line_hash
from ..crypto.manchester import CellState, classify_cell, encode_bytes
from ..errors import (
    AlignmentError,
    BadBlockError,
    HeatedBlockError,
    HeatError,
    ReadError,
    WriteError,
)
from ..medium.defects import scan_for_defects
from ..medium.geometry import MediumGeometry, geometry_for_blocks
from ..medium.medium import MediumConfig, PatternedMedium
from ..units import is_power_of_two
from .bitops import BitOps
from .sector import (
    BLOCK_SIZE,
    DOTS_PER_BLOCK,
    E_CELLS,
    E_PAYLOAD_BYTES,
    E_REGION_DOTS,
    ElectricalPayload,
    decode_frame,
    decode_frame_run,
    encode_frame,
    encode_frame_run,
)
from .scanner import Scanner
from .timing import CostAccount, TimingModel


@dataclass
class DeviceConfig:
    """Driver policy and reliability knobs.

    Attributes:
        erb_rounds: invert/verify rounds per erb (miss rate per heated
            dot is (1/4)**rounds; 2 keeps single-read ers reliable).
        ers_cell_retries: re-reads of cells that decode as unused
            before believing they are genuinely unused.
        include_addresses_in_hash: bind block PBAs into line hashes
            (True per the paper; False only for the security ablation).
        defect_tolerance: defective dots a block may contain before it
            is marked bad at format time (must stay below the ECC
            correction budget per frame).
        enforce_write_protect: refuse magnetic writes into heated lines.
        verify_retries: extra ers passes verify_line may take when the
            electrical payload reads back inconsistent.  A tampered
            (HH) cell escapes one pass as a plausible bit with ~12%
            probability; re-reading makes the CELL_TAMPERED verdict —
            rather than the weaker UNREADABLE — near-certain.
        span_engine: run the electrical paths (ers_block, probing,
            payload decode) on the vectorized span engine instead of
            the scalar per-dot reference protocol.  Both paths
            implement identical protocol semantics; the scalar one is
            the executable reference the equivalence tests compare
            against, reached by passing ``False`` here and no other
            way.
    """

    erb_rounds: int = 2
    ers_cell_retries: int = 6
    include_addresses_in_hash: bool = True
    defect_tolerance: int = 4
    enforce_write_protect: bool = True
    verify_retries: int = 3
    span_engine: bool = True


#: Manchester cell codes used by the span engine:
#: ``2 * first_dot_heated + second_dot_heated``.
_CODE_UNUSED, _CODE_ONE, _CODE_ZERO, _CODE_TAMPERED = 0, 1, 2, 3
_CODE_TO_STATE = (CellState.UNUSED, CellState.ONE,
                  CellState.ZERO, CellState.TAMPERED)
_CODE_TO_BIT = (None, 1, 0, None)


@dataclass(frozen=True)
class LineRecord:
    """Registry entry for one heated line."""

    start: int
    n_blocks: int
    line_hash: bytes
    timestamp: int


@dataclass
class DeviceStatePatch:
    """The state a *read-only* device pass advances, captured portably.

    An audit or fsck leaves the medium's arrays as it found them — its
    only side effects are the RNG position (heated-dot read noise), the
    operation counters, the cost account, the sled position and, under
    the scalar engine (whose electrical read writes each dot and
    restores it), the medium's mutation epoch.  A fleet worker
    that ran such a pass can therefore send this ~1 kB patch home
    instead of re-shipping the whole member snapshot; applying it to
    the originating device leaves that device byte-identical to having
    run the pass locally.
    """

    rng_state: dict
    counters: Dict[str, int]
    mut_epoch: int
    account_elapsed: float
    account_by_category: Dict[str, float]
    account_op_counts: Dict[str, int]
    scanner_x: float
    scanner_y: float
    scanner_last_block: Optional[int]

    @classmethod
    def capture(cls, device: "SERODevice") -> "DeviceStatePatch":
        return cls(
            rng_state=device.medium._rng.bit_generator.state,
            counters=dict(device.medium.counters),
            mut_epoch=device.medium.mutation_epoch,
            account_elapsed=device.account.elapsed,
            account_by_category=dict(device.account.by_category),
            account_op_counts=dict(device.account.op_counts),
            scanner_x=device.scanner._x,
            scanner_y=device.scanner._y,
            scanner_last_block=device.scanner._last_block,
        )

    def apply(self, device: "SERODevice") -> None:
        device.medium._rng.bit_generator.state = self.rng_state
        device.medium.counters.clear()
        device.medium.counters.update(self.counters)
        device.medium._mut_epoch = self.mut_epoch
        device.account.elapsed = self.account_elapsed
        device.account.by_category = dict(self.account_by_category)
        device.account.op_counts = dict(self.account_op_counts)
        device.scanner._x = self.scanner_x
        device.scanner._y = self.scanner_y
        device.scanner._last_block = self.scanner_last_block


class VerifyStatus(enum.Enum):
    """Outcome classes of :meth:`SERODevice.verify_line`."""

    INTACT = "intact"
    HASH_MISMATCH = "hash-mismatch"
    CELL_TAMPERED = "cell-tampered"
    UNREADABLE = "unreadable"
    NOT_A_LINE = "not-a-line"


@dataclass
class VerificationResult:
    """Result of verifying one line.

    Attributes:
        status: the verdict.
        start: line start PBA.
        stored_hash: hash recovered from the electrical block (None
            when unreadable).
        computed_hash: freshly computed hash over the data blocks.
        tampered_cells: Manchester cell indices that decoded to ``HH``.
    """

    status: VerifyStatus
    start: int
    stored_hash: Optional[bytes] = None
    computed_hash: Optional[bytes] = None
    tampered_cells: List[int] = field(default_factory=list)

    @property
    def tamper_evident(self) -> bool:
        """True when the result constitutes evidence of tampering."""
        return self.status in (VerifyStatus.HASH_MISMATCH,
                               VerifyStatus.CELL_TAMPERED,
                               VerifyStatus.UNREADABLE)


class SERODevice:
    """A probe-storage SERO block device on a patterned medium.

    Args:
        medium: the physical substrate.
        timing: latency model (None = defaults).
        config: driver policy (None = defaults).
    """

    def __init__(self, medium: PatternedMedium,
                 timing: Optional[TimingModel] = None,
                 config: Optional[DeviceConfig] = None) -> None:
        self.medium = medium
        self.geometry = medium.geometry
        self.timing = timing or TimingModel()
        self.config = config or DeviceConfig()
        self.account = CostAccount()
        self.scanner = Scanner(geometry=self.geometry, timing=self.timing,
                               account=self.account)
        self.bitops = BitOps(medium)
        self.bad_blocks: set = set()
        self.fragile_blocks: set = set()
        self._lines: Dict[int, LineRecord] = {}
        self._block_to_line: Dict[int, int] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, total_blocks: int,
               medium_config: Optional[MediumConfig] = None,
               timing: Optional[TimingModel] = None,
               config: Optional[DeviceConfig] = None,
               blocks_per_row: int = 8) -> "SERODevice":
        """Build a device with a fresh medium of ``total_blocks``."""
        geometry = geometry_for_blocks(total_blocks, DOTS_PER_BLOCK,
                                       blocks_per_row=blocks_per_row)
        medium = PatternedMedium(geometry, medium_config)
        return cls(medium, timing=timing, config=config)

    def clone(self) -> "SERODevice":
        """A deep, state-identical snapshot of this device.

        Round-trips through the compact pickled form (see
        :meth:`repro.medium.medium.PatternedMedium.__getstate__`): the
        clone carries the same medium state, RNG position, bad-block
        map, line registry, scanner position and cost account, so it
        behaves byte-identically from here on.  This is the transport
        the fleet's rpc executor uses to move members to worker
        daemons.
        """
        import pickle

        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    def state_patch(self) -> DeviceStatePatch:
        """Portable capture of the read-only-pass state (RNG, counters,
        clock, sled); see :class:`DeviceStatePatch`."""
        return DeviceStatePatch.capture(self)

    def format(self) -> None:
        """Format-time surface scan: populate the bad-block map.

        Must run before any line is heated so a heated block can never
        be "misinterpreted as a bad block" (Section 3).
        """
        if self._lines:
            raise WriteError("cannot format: device already has heated lines")
        report = scan_for_defects(self.medium,
                                  tolerance=self.config.defect_tolerance,
                                  e_region_dots=E_REGION_DOTS,
                                  vectorized=self.config.span_engine)
        self.bad_blocks = set(report.bad_blocks)
        self.fragile_blocks = set(report.fragile_blocks)

    # -- capacity ---------------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        """Total physical block count."""
        return self.geometry.total_blocks

    @property
    def heated_lines(self) -> Tuple[LineRecord, ...]:
        """Registered heated lines, in start order."""
        return tuple(self._lines[k] for k in sorted(self._lines))

    def heated_block_count(self) -> int:
        """Blocks belonging to heated lines (read-only capacity)."""
        return sum(rec.n_blocks for rec in self._lines.values())

    def writable_block_count(self) -> int:
        """Blocks still available for WMRM use."""
        return self.total_blocks - self.heated_block_count() - len(self.bad_blocks)

    def is_block_heated(self, pba: int) -> bool:
        """True when ``pba`` lies inside a registered heated line."""
        return pba in self._block_to_line

    def line_of_block(self, pba: int) -> Optional[LineRecord]:
        """The heated line containing ``pba``, if any."""
        start = self._block_to_line.get(pba)
        return self._lines.get(start) if start is not None else None

    # -- magnetic sector operations ----------------------------------------------

    def _check_pba(self, pba: int) -> None:
        if not 0 <= pba < self.total_blocks:
            raise ReadError(f"physical block address {pba} out of range")
        if pba in self.bad_blocks:
            raise BadBlockError(f"block {pba} is marked bad")

    def read_block(self, pba: int) -> bytes:
        """Magnetic read sector (mrs): the 512-byte payload of ``pba``.

        Heated *data* blocks read normally ("blocks 1..2^N-1 of a
        heated line can still be read magnetically, hence efficiently");
        the electrically written block 0 of a line cannot.
        """
        self._check_pba(pba)
        line = self.line_of_block(pba)
        if line is not None and pba == line.start:
            raise HeatedBlockError(
                f"block {pba} is the electrically written hash block of a "
                "heated line; use ers_block/verify_line")
        return self._mrs(pba)

    def _mrs(self, pba: int) -> bytes:
        start, end = self.geometry.block_span(pba)
        self.scanner.seek_to_block(pba)
        self.scanner.transfer(end - start, "mrb")
        bits = self.medium.read_mag_span(start, end)
        return decode_frame(bits, expected_pba=pba).payload

    def _mrs_run(self, first: int, count: int) -> List[bytes]:
        """mrs a run of ``count`` consecutive blocks in one span read.

        The sled walks the run exactly as ``count`` sequential ``_mrs``
        calls would (same seeks, same transfer charge), but the medium
        is read in a single span and decoded per block afterwards —
        one numpy gather instead of ``count``.
        """
        if count <= 0:
            return []
        start_dot, _ = self.geometry.block_span(first)
        _, end_dot = self.geometry.block_span(first + count - 1)
        for pba in range(first, first + count):
            self.scanner.seek_to_block(pba)  # continuations charge 0
        self.scanner.transfer(end_dot - start_dot, "mrb")
        bits = self.medium.read_mag_span(start_dot, end_dot)
        return [frame.payload for frame in decode_frame_run(bits, first)]

    def read_block_run(self, first: int, count: int) -> List[bytes]:
        """mrs a run of ``count`` consecutive blocks.

        Driver policy checks (range, bad block, heated hash block) are
        applied per block before anything is read; on the span engine
        the run is then read as one medium span (:meth:`_mrs_run`).
        The scalar path, and a run of one, fall back to per-block
        :meth:`read_block`.
        """
        if count <= 0:
            return []
        for pba in range(first, first + count):
            self._check_pba(pba)
            line = self.line_of_block(pba)
            if line is not None and pba == line.start:
                raise HeatedBlockError(
                    f"block {pba} is the electrically written hash block "
                    "of a heated line; use ers_block/verify_line")
        if not self.config.span_engine or count == 1:
            return [self.read_block(first + offset)
                    for offset in range(count)]
        return self._mrs_run(first, count)

    def write_block(self, pba: int, payload: bytes) -> None:
        """Magnetic write sector (mws).

        Refuses to write into a heated line when
        ``enforce_write_protect`` is set (driver policy; the medium
        itself cannot refuse).
        """
        self._check_pba(pba)
        if self.config.enforce_write_protect and self.is_block_heated(pba):
            raise HeatedBlockError(
                f"block {pba} belongs to a heated line and is read-only")
        self._mws(pba, payload)

    def _mws(self, pba: int, payload: bytes) -> None:
        bits = encode_frame(pba, payload)
        start, _end = self.geometry.block_span(pba)
        self.scanner.seek_to_block(pba)
        self.scanner.transfer(len(bits), "mwb")
        self.medium.write_mag_span(start, bits)

    def write_block_run(self, first: int, payloads: Sequence[bytes]) -> None:
        """mws a run of consecutive blocks starting at ``first``.

        Driver policy checks are applied per block; on the span engine
        the encoded frames are concatenated and written in a single
        span (the seek/transfer charges match the sequential writes —
        a run continuation costs no seek).  The scalar path falls back
        to per-block ``write_block``.
        """
        count = len(payloads)
        if count == 0:
            return
        for offset in range(count):
            pba = first + offset
            self._check_pba(pba)
            if self.config.enforce_write_protect and self.is_block_heated(pba):
                raise HeatedBlockError(
                    f"block {pba} belongs to a heated line and is read-only")
        if not self.config.span_engine:
            for offset, payload in enumerate(payloads):
                self._mws(first + offset, payload)
            return
        bits = encode_frame_run(first, list(payloads))
        start_dot, _ = self.geometry.block_span(first)
        for pba in range(first, first + count):
            self.scanner.seek_to_block(pba)  # continuations charge 0
        self.scanner.transfer(len(bits), "mwb")
        self.medium.write_mag_span(start_dot, bits)

    # -- electrical sector operations ----------------------------------------------

    def ews_block(self, pba: int, payload: bytes) -> None:
        """Electrical write sector: burn ``payload`` into block ``pba``.

        The payload (256 bytes) is Manchester-encoded over the first
        4096 dots of the span; only the H dots receive heat pulses.
        """
        self._check_pba(pba)
        if len(payload) != E_PAYLOAD_BYTES:
            raise WriteError(
                f"electrical payload must be {E_PAYLOAD_BYTES} bytes")
        pattern = np.asarray(encode_bytes(payload), dtype=bool)
        assert len(pattern) == E_REGION_DOTS
        start, _end = self.geometry.block_span(pba)
        self.scanner.seek_to_block(pba)
        self.scanner.transfer(int(pattern.sum()), "ewb")
        self.medium.heat_span(start, start + E_REGION_DOTS, pattern,
                              vectorized=self.config.span_engine)

    def ers_block(self, pba: int) -> Tuple[List[CellState], List[int]]:
        """Electrical read sector: decode the 2048 Manchester cells.

        Returns ``(cell_states, bits)`` where ``bits`` holds a logical
        bit per valid cell and ``None`` per unused/tampered cell.
        Cells that first decode as unused are re-read up to
        ``ers_cell_retries`` times: a heated dot can escape one erb
        with probability (1/4)**rounds, so an apparently unused cell in
        an otherwise written block is most likely a misread.

        Runs on the vectorized span engine unless
        ``config.span_engine`` selects the scalar reference protocol;
        verdicts, retry policy and cost accounting are identical.
        """
        codes = self._ers_codes(pba)
        states = [_CODE_TO_STATE[c] for c in codes]
        bits = [_CODE_TO_BIT[c] for c in codes]
        return states, bits

    def _ers_codes(self, pba: int) -> np.ndarray:
        """ers a block to an array of Manchester cell codes.

        Seeks, reads every cell (with the unused-cell retry policy)
        and charges the scanner; returns an int8 array of ``E_CELLS``
        cell codes (``_CODE_*``).
        """
        self._check_pba(pba)
        start, _end = self.geometry.block_span(pba)
        self.scanner.seek_to_block(pba)
        rounds = self.config.erb_rounds
        if self.config.span_engine:
            codes, erb_ops = self._ers_cells_span(start, rounds)
        else:
            codes, erb_ops = self._ers_cells_scalar(start, rounds)
        # one erb costs 1 + 4*rounds bit operations (BitOps.bit_cost)
        self.scanner.transfer(erb_ops, "erb",
                              per_bit=self.timing.t_erb_for(rounds))
        return codes

    def _ers_cells_span(self, start: int,
                        rounds: int) -> Tuple[np.ndarray, int]:
        """Span-engine cell read: bulk erb plus vectorized retries."""
        heated = self.bitops.erb_span(start, start + E_REGION_DOTS, rounds)
        erb_ops = E_REGION_DOTS
        first = heated[0::2].copy()
        second = heated[1::2].copy()
        unresolved = np.flatnonzero(~first & ~second)
        for _ in range(self.config.ers_cell_retries):
            if unresolved.size == 0:
                break
            idx = np.empty(2 * unresolved.size, dtype=np.int64)
            idx[0::2] = start + 2 * unresolved
            idx[1::2] = idx[0::2] + 1
            h = self.bitops.erb_at(idx, rounds)
            erb_ops += int(idx.size)
            h0 = h[0::2]
            h1 = h[1::2]
            first[unresolved] |= h0
            second[unresolved] |= h1
            unresolved = unresolved[~(h0 | h1)]
        codes = (first.astype(np.int8) << 1) | second.astype(np.int8)
        return codes, erb_ops

    def _ers_cells_scalar(self, start: int,
                          rounds: int) -> Tuple[np.ndarray, int]:
        """Scalar reference cell read: the paper's per-dot protocol."""
        codes = np.empty(E_CELLS, dtype=np.int8)
        erb_ops = 0
        for cell in range(E_CELLS):
            d0 = start + 2 * cell
            d1 = d0 + 1
            first = self.bitops.erb(d0, rounds) == "H"
            second = self.bitops.erb(d1, rounds) == "H"
            erb_ops += 2
            state = classify_cell(first, second)
            retries = 0
            while state is CellState.UNUSED and retries < self.config.ers_cell_retries:
                first = first or self.bitops.erb(d0, rounds) == "H"
                second = second or self.bitops.erb(d1, rounds) == "H"
                erb_ops += 2
                new_state = classify_cell(first, second)
                if new_state is not CellState.UNUSED:
                    state = new_state
                    break
                retries += 1
            codes[cell] = (int(first) << 1) | int(second)
        return codes, erb_ops

    def _ers_payload(self, pba: int) -> Tuple[Optional[bytes], List[int], bool]:
        """Decode an electrical block to payload bytes.

        Returns ``(payload_or_None, tampered_cells, looks_virgin)``.
        """
        codes = self._ers_codes(pba)
        return self._decode_codes(codes)

    @staticmethod
    def _decode_codes(codes: np.ndarray) -> Tuple[Optional[bytes], List[int], bool]:
        tampered = np.flatnonzero(codes == _CODE_TAMPERED).tolist()
        unused = codes == _CODE_UNUSED
        if unused.all():
            return None, tampered, True
        if tampered or unused.any():
            return None, tampered, False
        return np.packbits(codes == _CODE_ONE).tobytes(), tampered, False

    def _ers_codes_many(self, pbas: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``_ers_codes`` over many blocks.

        Reads every block's electrical region in one bulk erb gather
        and runs the unused-cell retry policy as shared waves across
        all blocks (each block keeps its own ``ers_cell_retries``
        budget).  Charges *nothing*: returns an ``(n, E_CELLS)`` int8
        code matrix plus the per-block erb operation counts so the
        caller can charge the scanner in protocol order.
        """
        n = len(pbas)
        if n == 0:
            return np.empty((0, E_CELLS), dtype=np.int8), np.zeros(0, np.int64)
        starts = np.empty(n, dtype=np.int64)
        for i, pba in enumerate(pbas):
            self._check_pba(pba)
            starts[i] = self.geometry.block_span(pba)[0]
        rounds = self.config.erb_rounds
        dot_idx = (starts[:, None]
                   + np.arange(E_REGION_DOTS, dtype=np.int64)).ravel()
        heated = self.bitops.erb_at(dot_idx, rounds).reshape(n, E_REGION_DOTS)
        first = heated[:, 0::2].copy()
        second = heated[:, 1::2].copy()
        erb_ops = np.full(n, E_REGION_DOTS, dtype=np.int64)
        unresolved = ~first & ~second
        for _ in range(self.config.ers_cell_retries):
            rows, cells = np.nonzero(unresolved)
            if rows.size == 0:
                break
            d0 = starts[rows] + 2 * cells
            idx = np.empty(2 * rows.size, dtype=np.int64)
            idx[0::2] = d0
            idx[1::2] = d0 + 1
            h = self.bitops.erb_at(idx, rounds)
            np.add.at(erb_ops, rows, 2)
            h0 = h[0::2]
            h1 = h[1::2]
            first[rows, cells] |= h0
            second[rows, cells] |= h1
            unresolved[rows, cells] = ~(h0 | h1)
        return (first.astype(np.int8) << 1) | second.astype(np.int8), erb_ops

    # -- the heat operation -----------------------------------------------------------

    def _check_line_shape(self, start: int, n_blocks: int) -> None:
        if n_blocks < 2 or not is_power_of_two(n_blocks):
            raise AlignmentError(
                f"line length must be a power of two >= 2, got {n_blocks}")
        if start % n_blocks:
            raise AlignmentError(
                f"line start {start} not aligned on a {n_blocks}-block boundary")
        if start + n_blocks > self.total_blocks:
            raise AlignmentError("line extends past end of medium")

    def _line_data_addresses(self, start: int, n_blocks: int) -> List[int]:
        return list(range(start + 1, start + n_blocks))

    def heat_line(self, start: int, n_blocks: int, timestamp: int = 0) -> LineRecord:
        """The atomic WO operation of Section 3.

        1. mrs blocks 1..n-1 of the line;
        2. SHA-256 over the blocks and their physical addresses;
        3. ews the Manchester encoding of the hash (+ metadata) into
           block 0;
        4. ers the hash back, or fail with :class:`HeatError`.
        """
        self._check_line_shape(start, n_blocks)
        if start in self.fragile_blocks:
            raise BadBlockError(
                f"block {start} has defective dots in its electrical "
                "region and cannot serve as a line's hash block")
        for pba in range(start, start + n_blocks):
            if pba in self.bad_blocks:
                raise BadBlockError(
                    f"line [{start}, {start + n_blocks}) contains bad block {pba}")
        for pba in range(start, start + n_blocks):
            existing = self.line_of_block(pba)
            if existing is None:
                continue
            if existing.start != start or existing.n_blocks != n_blocks:
                raise AlignmentError(
                    f"line [{start}, {start + n_blocks}) overlaps heated "
                    f"line at {existing.start} (+{existing.n_blocks})")

        addresses = self._line_data_addresses(start, n_blocks)
        blocks = self._read_line_blocks(addresses)
        digest = line_hash(addresses, blocks,
                           include_addresses=self.config.include_addresses_in_hash)
        payload = ElectricalPayload(
            line_start=start,
            n_blocks_log2=n_blocks.bit_length() - 1,
            line_hash=digest,
            timestamp=timestamp,
        ).pack()
        self.ews_block(start, payload)

        read_back, tampered, virgin = self._ers_payload(start)
        if tampered or virgin or read_back != payload:
            raise HeatError(
                f"heat verify failed for line at {start}: "
                f"{len(tampered)} tampered cells"
                + (" (was the line already heated with different data?)"
                   if tampered else ""))

        record = LineRecord(start=start, n_blocks=n_blocks,
                            line_hash=digest, timestamp=timestamp)
        self._register(record)
        return record

    def _register(self, record: LineRecord) -> None:
        self._lines[record.start] = record
        for pba in range(record.start, record.start + record.n_blocks):
            self._block_to_line[pba] = record.start

    # -- verification --------------------------------------------------------------------

    def verify_line(self, start: int) -> VerificationResult:
        """Verify a heated line: recompute the hash and compare.

        "A mismatch represents evidence of tampering" (Section 3).

        The electrical read is repeated up to ``verify_retries`` times
        when it comes back inconsistent (incomplete cells or a payload
        CRC failure): a single misread heated dot is transient, while
        true HH tampering shows up almost surely across passes.
        """
        meta = None
        tampered: List[int] = []
        virgin = False
        payload = None
        for _attempt in range(1 + self.config.verify_retries):
            payload, tampered, virgin = self._ers_payload(start)
            if tampered or virgin:
                break
            if payload is not None:
                try:
                    meta = ElectricalPayload.unpack(payload)
                    break
                except ReadError:
                    meta = None  # CRC failed: re-read before concluding
        if tampered:
            return VerificationResult(status=VerifyStatus.CELL_TAMPERED,
                                      start=start, tampered_cells=tampered)
        if virgin:
            return VerificationResult(status=VerifyStatus.NOT_A_LINE, start=start)
        if meta is None:
            return VerificationResult(status=VerifyStatus.UNREADABLE, start=start)
        return self._verify_magnetic(start, meta)

    def _read_line_blocks(self, addresses: List[int]) -> List[bytes]:
        """mrs a line's (consecutive) data blocks, as one span run on
        the span engine."""
        if self.config.span_engine and addresses:
            return self._mrs_run(addresses[0], len(addresses))
        return [self._mrs(pba) for pba in addresses]

    def _verify_magnetic(self, start: int,
                         meta: ElectricalPayload) -> VerificationResult:
        """Magnetic half of line verification: recompute and compare
        the line hash recorded in ``meta``."""
        n_blocks = 1 << meta.n_blocks_log2
        if meta.line_start != start:
            return VerificationResult(status=VerifyStatus.HASH_MISMATCH,
                                      start=start, stored_hash=meta.line_hash)
        addresses = self._line_data_addresses(start, n_blocks)
        try:
            blocks = self._read_line_blocks(addresses)
        except ReadError:
            # a data block no longer decodes: overwritten garbage,
            # electrically destroyed dots, or a bulk erase
            return VerificationResult(status=VerifyStatus.UNREADABLE,
                                      start=start, stored_hash=meta.line_hash)
        digest = line_hash(addresses, blocks,
                           include_addresses=self.config.include_addresses_in_hash)
        if digest != meta.line_hash:
            return VerificationResult(status=VerifyStatus.HASH_MISMATCH,
                                      start=start, stored_hash=meta.line_hash,
                                      computed_hash=digest)
        return VerificationResult(status=VerifyStatus.INTACT, start=start,
                                  stored_hash=meta.line_hash,
                                  computed_hash=digest)

    def verify_lines(self, starts: Sequence[int]) -> List[VerificationResult]:
        """Batched :meth:`verify_line` over many line starts.

        The audit hot path: the ``fsck``/``fossil``/``venti``/audit-log
        layers all verify every sealed line of an arena.  On the span
        engine the electrical reads of *all* lines run as one bulk erb
        gather with shared retry waves (:meth:`_ers_codes_many`); lines
        whose first electrical read comes back inconsistent (partial
        cells or a payload CRC failure) fall back to the per-line
        retrying :meth:`verify_line`, preserving its semantics.
        Verdicts are returned in input order.

        Scanner charges replay the sequential per-line protocol order
        (seek + erb transfer, then the data-block reads), so the
        simulated device time matches a ``verify_line`` loop up to the
        per-pass randomness of the heated-cell retry counts.
        """
        starts = [int(s) for s in starts]
        if not self.config.span_engine or len(starts) <= 1:
            return [self.verify_line(start) for start in starts]
        codes, erb_ops = self._ers_codes_many(starts)
        per_bit = self.timing.t_erb_for(self.config.erb_rounds)
        results: List[VerificationResult] = []
        for i, start in enumerate(starts):
            self.scanner.seek_to_block(start)
            self.scanner.transfer(int(erb_ops[i]), "erb", per_bit=per_bit)
            payload, tampered, virgin = self._decode_codes(codes[i])
            if tampered:
                results.append(VerificationResult(
                    status=VerifyStatus.CELL_TAMPERED, start=start,
                    tampered_cells=tampered))
                continue
            if virgin:
                results.append(VerificationResult(
                    status=VerifyStatus.NOT_A_LINE, start=start))
                continue
            if payload is None:
                # incomplete cells: re-read with the full retry policy
                results.append(self.verify_line(start))
                continue
            try:
                meta = ElectricalPayload.unpack(payload)
            except ReadError:
                # CRC failed: verify_line re-reads before concluding
                results.append(self.verify_line(start))
                continue
            results.append(self._verify_magnetic(start, meta))
        return results

    def verify_all(self) -> List[VerificationResult]:
        """Verify every registered line (audit sweep, batched)."""
        return self.verify_lines([rec.start for rec in self.heated_lines])

    # -- discovery (fsck support) -----------------------------------------------------------

    def probe_block_electrical(self, pba: int, probe_cells: int = 8) -> bool:
        """Cheaply test whether ``pba`` carries electrical data.

        Reads the first ``probe_cells`` Manchester cells with erb; a
        virgin block decodes all-unused (healthy dots never fail the
        erb verification), while any written electrical block has heat
        in its magic cells.
        """
        self._check_pba(pba)
        start, _end = self.geometry.block_span(pba)
        self.scanner.seek_to_block(pba)
        rounds = self.config.erb_rounds
        if self.config.span_engine:
            # The scalar loop stops at the first H; a dot is only ever
            # skipped after detection has already succeeded, so probing
            # the whole window at once has the same detection
            # probability (and the same fixed scanner charge below).
            heated = bool(
                self.bitops.erb_span(start, start + 2 * probe_cells,
                                     rounds).any())
        else:
            heated = False
            for cell in range(probe_cells):
                d0 = start + 2 * cell
                if self.bitops.erb(d0, rounds) == "H" or \
                   self.bitops.erb(d0 + 1, rounds) == "H":
                    heated = True
                    break
        self.scanner.transfer(2 * probe_cells, "erb",
                              per_bit=self.timing.t_erb_for(rounds))
        return heated

    def load_line(self, start: int) -> Optional[LineRecord]:
        """Re-register one heated line from its block 0.

        Used at mount time when a checkpoint remembers where lines are:
        a single ers read per line instead of a whole-medium scan.
        Returns None when the block does not hold a valid line head.
        """
        payload, _tampered, _virgin = self._ers_payload(start)
        if payload is None:
            return None
        try:
            meta = ElectricalPayload.unpack(payload)
        except ReadError:
            return None
        if meta.line_start != start:
            return None
        record = LineRecord(start=start, n_blocks=1 << meta.n_blocks_log2,
                            line_hash=meta.line_hash, timestamp=meta.timestamp)
        self._register(record)
        return record

    def scan_lines(self) -> List[LineRecord]:
        """Rebuild the line registry by scanning the whole medium.

        The "fsck style scan ... would definitely recover (albeit
        slowly) all the heated files" of Section 5.2.  Every block is
        probed electrically; blocks that respond are fully ers-read and
        parsed.  Returns the recovered records (also re-registered).
        """
        recovered: List[LineRecord] = []
        self._lines.clear()
        self._block_to_line.clear()
        for pba in range(self.total_blocks):
            if pba in self.bad_blocks:
                continue
            if pba in self._block_to_line:
                continue  # interior of an already recovered line
            if not self.probe_block_electrical(pba):
                continue
            payload, tampered, _virgin = self._ers_payload(pba)
            if payload is None:
                continue  # tampered or partial: surfaced by verify, not scan
            try:
                meta = ElectricalPayload.unpack(payload)
            except ReadError:
                continue
            record = LineRecord(start=meta.line_start,
                                n_blocks=1 << meta.n_blocks_log2,
                                line_hash=meta.line_hash,
                                timestamp=meta.timestamp)
            self._register(record)
            recovered.append(record)
        return recovered

    # -- lifecycle ---------------------------------------------------------------------------

    def capacity_report(self) -> Dict[str, int]:
        """Capacity accounting: total / writable / read-only / bad."""
        return {
            "total_blocks": self.total_blocks,
            "writable_blocks": self.writable_block_count(),
            "heated_blocks": self.heated_block_count(),
            "bad_blocks": len(self.bad_blocks),
        }

    def is_decommissionable(self) -> bool:
        """True when no WMRM capacity remains (end of device life,
        Section 8: the device "ends life as a Read-only device")."""
        return self.writable_block_count() <= 0
