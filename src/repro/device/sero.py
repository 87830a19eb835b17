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
    decode_frame_run,
    decode_frame_runs,
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

#: Data frames whose spans one batched audit holds before it decodes
#: them in one ECC pass (~300 KB of dots): enough to amortise the
#: per-call cost.  At 256 frames the decode's temporaries raised
#: ``gw_ingest``'s peak RSS by ~4 MB; at 64 it stays at the per-line
#: audit's.
_DECODE_BATCH_FRAMES = 64


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
        #: well-formed heads the last :meth:`scan_lines` found holding
        #: another head, in start order; none is registered
        self.line_conflicts: Tuple[LineRecord, ...] = ()

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

        Round-trips through the compact pickled form, in which the
        medium is one :class:`~repro.medium.medium.MediumDelta` over
        every block (see
        :meth:`repro.medium.medium.PatternedMedium.__getstate__`): the
        clone carries the same medium state, RNG position, bad-block
        map, line registry, scanner position and cost account, so it
        behaves byte-identically from here on.
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
        return self._checked_read_run(pba, 1)[0]

    def read_block_run(self, first: int, count: int) -> List[bytes]:
        """mrs a run of ``count`` consecutive blocks.

        The checks of :meth:`read_block` apply to every block of the
        run, before anything is read; on the span engine the run is
        then read as one medium span (:meth:`_mrs_run`).
        """
        return self._checked_read_run(first, count)

    def _checked_read_run(self, first: int, count: int) -> List[bytes]:
        """The one checked mrs path: range, bad block and heated hash
        block per block, then :meth:`_mrs_run`."""
        for pba in range(first, first + count):
            self._check_pba(pba)
            line = self.line_of_block(pba)
            if line is not None and pba == line.start:
                raise HeatedBlockError(
                    f"block {pba} is the electrically written hash block "
                    "of a heated line; use ers_block/verify_line")
        return self._mrs_run(first, count)

    def _mrs_run(self, first: int, count: int) -> List[bytes]:
        """mrs a run of ``count`` consecutive blocks, unchecked.

        On the span engine the sled walks the run exactly as ``count``
        single-block reads would (same seeks), the run is charged one
        transfer, and the medium is read in a single span and decoded
        in one ECC pass — one numpy gather instead of ``count``.  The
        scalar engine reads and decodes block by block.
        """
        if not self.config.span_engine:
            return [decode_frame_run(self._mrs_span(pba, 1), pba)[0].payload
                    for pba in range(first, first + count)]
        if count <= 0:
            return []
        return [frame.payload for frame in
                decode_frame_run(self._mrs_span(first, count), first)]

    def _mrs_span(self, first: int, count: int) -> np.ndarray:
        """Charge the sled for an mrs run and read its dots, undecoded.

        The one magnetic read path of :meth:`_mrs_run` and the batched
        audit, and so of every file-system run (``SeroFS`` reads each
        extent of a file with one :meth:`read_block_run`): one run seek
        (continuations charge 0), one transfer charge, one
        medium span read — whose heated dots draw their read noise
        here, once per span, in call order.
        """
        start_dot, _ = self.geometry.block_span(first)
        _, end_dot = self.geometry.block_span(first + count - 1)
        self.scanner.seek_to_run(first, count)
        self.scanner.transfer(end_dot - start_dot, "mrb")
        return self.medium.read_mag_span(start_dot, end_dot)

    def write_block(self, pba: int, payload: bytes) -> None:
        """Magnetic write sector (mws).

        Refuses to write into a heated line when
        ``enforce_write_protect`` is set (driver policy; the medium
        itself cannot refuse).
        """
        self._checked_write_run(pba, [payload])

    def write_block_run(self, first: int, payloads: Sequence[bytes]) -> None:
        """mws a run of consecutive blocks starting at ``first``.

        The checks of :meth:`write_block` apply to every block of the
        run, before anything is written; on the span engine the
        encoded frames are concatenated and written in a single span
        (the seek/transfer charges match the sequential writes — a run
        continuation costs no seek).
        """
        self._checked_write_run(first, payloads)

    def _checked_write_run(self, first: int,
                           payloads: Sequence[bytes]) -> None:
        """The one checked mws path: range, bad block and write protect
        per block, then one span write per run (per block on the scalar
        engine)."""
        for pba in range(first, first + len(payloads)):
            self._check_pba(pba)
            if self.config.enforce_write_protect and self.is_block_heated(pba):
                raise HeatedBlockError(
                    f"block {pba} belongs to a heated line and is read-only")
        if not self.config.span_engine:
            runs = [(first + offset, [payload])
                    for offset, payload in enumerate(payloads)]
        else:
            runs = [(first, payloads)] if payloads else []
        for run_first, run in runs:
            bits = encode_frame_run(run_first, run)
            start_dot, _ = self.geometry.block_span(run_first)
            self.scanner.seek_to_run(run_first, len(run))
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
        ``config.span_engine`` selects the scalar reference protocol.
        The two give the same verdicts under the same retry policy, but
        not the same draws: the scalar loop reads cell by cell and the
        span engine in bulk waves, so after a heat their
        ``medium.counters``, RNG position and erb charge differ.
        """
        codes = self._ers_codes(pba)
        states = [_CODE_TO_STATE[c] for c in codes]
        bits = [_CODE_TO_BIT[c] for c in codes]
        return states, bits

    def _ers_codes(self, pba: int) -> np.ndarray:
        """ers a block to an array of Manchester cell codes.

        Reads every cell (with the unused-cell retry policy), seeks and
        charges the scanner; returns an int8 array of ``E_CELLS`` cell
        codes (``_CODE_*``).  The span engine reads through
        :meth:`_ers_codes_many`, as a batch of one.
        """
        rounds = self.config.erb_rounds
        if self.config.span_engine:
            codes, erb_ops = self._ers_codes_many([pba])
            codes, erb_ops = codes[0], int(erb_ops[0])
        else:
            self._check_pba(pba)
            start, _end = self.geometry.block_span(pba)
            codes, erb_ops = self._ers_cells_scalar(start, rounds)
        self.scanner.seek_to_block(pba)
        # one erb costs 1 + 4*rounds bit operations (BitOps.bit_cost)
        self.scanner.transfer(erb_ops, "erb",
                              per_bit=self.timing.t_erb_for(rounds))
        return codes

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
        return self._decode_code_rows(self._ers_codes(pba)[None, :])[0]

    def _ers_codes_many(self, pbas: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The span engine's ers over many blocks (one for ``_ers_codes``).

        Reads every block's electrical region in one bulk erb gather
        and runs the unused-cell retry policy as shared waves across
        all blocks (each block keeps its own ``ers_cell_retries``
        budget).  Charges *nothing*: returns an ``(n, E_CELLS)`` int8
        code matrix plus the per-block erb operation counts so the
        caller can charge the scanner in protocol order.
        """
        n = len(pbas)
        starts = []
        for pba in pbas:
            self._check_pba(pba)
            starts.append(self.geometry.block_span(pba)[0])
        rounds = self.config.erb_rounds
        heated = self.bitops.erb_spans(starts, E_REGION_DOTS, rounds)
        # a cell is its two dot verdicts read as one uint16 (0: both U),
        # flat and block-major, so a retry wave addresses its cells by
        # flat index in the order a row-major scan meets them
        cells = heated.view(np.uint16).ravel()
        unresolved = np.flatnonzero(cells == 0)
        rows = unresolved // E_CELLS
        dots = np.asarray(starts, dtype=np.int64)[rows] \
            + 2 * (unresolved - rows * E_CELLS)  # each cell's first dot
        waves = []
        for _ in range(self.config.ers_cell_retries):
            if unresolved.size == 0:
                break
            waves.append(unresolved)
            idx = np.empty(2 * unresolved.size, dtype=np.int64)
            idx[0::2] = dots
            idx[1::2] = dots + 1
            h = self.bitops.erb_at(idx, rounds).view(np.uint16)
            # both dots of an unresolved cell read U so far
            cells[unresolved] = h
            left = h == 0
            unresolved, dots = unresolved[left], dots[left]
        retried = np.concatenate(waves) if waves else unresolved[:0]
        erb_ops = E_REGION_DOTS + 2 * np.bincount(retried // E_CELLS,
                                                  minlength=n)
        # 2 * first + second, on int8 views of the bool verdicts
        codes = heated[:, 0::2].view(np.int8) * 2 \
            + heated[:, 1::2].view(np.int8)
        return codes, erb_ops

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
        blocks = self._mrs_run(start + 1, len(addresses))
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

    def _verify_magnetic(self, start: int,
                         meta: ElectricalPayload) -> VerificationResult:
        """Magnetic half of line verification: recompute and compare
        the line hash recorded in ``meta``."""
        misplaced = self._misplaced(start, meta)
        if misplaced is not None:
            return misplaced
        addresses = self._line_data_addresses(start, 1 << meta.n_blocks_log2)
        try:
            blocks = self._mrs_run(start + 1, len(addresses))
        except ReadError:
            # a data block no longer decodes: overwritten garbage,
            # electrically destroyed dots, or a bulk erase
            blocks = None
        return self._hash_verdict(start, meta, addresses, blocks)

    def _misplaced(self, start: int,
                   meta: ElectricalPayload) -> Optional[VerificationResult]:
        """A hash block that names another line start (a copied or
        forged head), or whose line could not have been heated — under
        two blocks, not aligned on its length, or ending past the
        medium (:meth:`_check_line_shape`) — is a mismatch before any
        data is read; discovery never registers it."""
        n_blocks = 1 << meta.n_blocks_log2
        if meta.line_start == start and meta.n_blocks_log2 and \
                start % n_blocks == 0 and start + n_blocks <= self.total_blocks:
            return None
        return VerificationResult(status=VerifyStatus.HASH_MISMATCH,
                                  start=start, stored_hash=meta.line_hash)

    def _hash_verdict(self, start: int, meta: ElectricalPayload,
                      addresses: List[int],
                      blocks: Optional[List[bytes]]) -> VerificationResult:
        """The verdict on a line whose data blocks read back as
        ``blocks`` (None: some block did not decode)."""
        if blocks is None:
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

        Scanner charges and medium reads replay the sequential per-line
        protocol order (seek + erb transfer, then the data-block span
        read), so the RNG stream is a ``verify_line`` loop's and the
        simulated device time matches one up to the per-pass randomness
        of the heated-cell retry counts.  Only the pure work is
        deferred and batched: the data spans of up to
        ``_DECODE_BATCH_FRAMES`` frames share one ECC decode
        (:func:`~repro.device.sector.decode_frame_runs`), then each
        line is hashed and judged on its own.
        """
        starts = [int(s) for s in starts]
        if not self.config.span_engine or len(starts) <= 1:
            return [self.verify_line(start) for start in starts]
        codes, erb_ops = self._ers_codes_many(starts)
        per_bit = self.timing.t_erb_for(self.config.erb_rounds)
        results: List[Optional[VerificationResult]] = []
        # (result slot, start, meta, data addresses, undecoded span)
        pending: List[Tuple[int, int, ElectricalPayload, List[int],
                            np.ndarray]] = []
        pending_frames = 0
        for start, (payload, tampered, virgin), ops in zip(
                starts, self._decode_code_rows(codes), erb_ops.tolist()):
            self.scanner.seek_to_block(start)
            self.scanner.transfer(ops, "erb", per_bit=per_bit)
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
            misplaced = self._misplaced(start, meta)
            if misplaced is not None:
                results.append(misplaced)
                continue
            addresses = self._line_data_addresses(
                start, 1 << meta.n_blocks_log2)
            bits = self._mrs_span(start + 1, len(addresses)) \
                if addresses else np.zeros(0, dtype=np.uint8)
            pending.append((len(results), start, meta, addresses, bits))
            results.append(None)
            pending_frames += len(addresses)
            if pending_frames >= _DECODE_BATCH_FRAMES:
                self._judge_pending(pending, results)
                pending, pending_frames = [], 0
        self._judge_pending(pending, results)
        return results  # type: ignore[return-value]  # every slot filled

    def _judge_pending(
            self,
            pending: List[Tuple[int, int, ElectricalPayload, List[int],
                                np.ndarray]],
            results: List[Optional[VerificationResult]]) -> None:
        """Decode the read spans of ``pending`` lines in one ECC pass
        and fill in their verdicts."""
        frames = decode_frame_runs(
            [(bits, start + 1) for _, start, _, _, bits in pending])
        for (slot, start, meta, addresses, _bits), run in zip(pending,
                                                              frames):
            blocks = None if run is None else [f.payload for f in run]
            results[slot] = self._hash_verdict(start, meta, addresses,
                                               blocks)

    @staticmethod
    def _decode_code_rows(codes: np.ndarray
                          ) -> List[Tuple[Optional[bytes], List[int], bool]]:
        """Decode each row of an ``(n, E_CELLS)`` code matrix to
        ``(payload_or_None, tampered_cells, looks_virgin)``, with the
        whole-matrix reductions run once."""
        tampered = codes == _CODE_TAMPERED
        any_tampered = tampered.any(axis=1).tolist()
        n_unused = np.count_nonzero(codes == _CODE_UNUSED, axis=1).tolist()
        packed = np.packbits(codes == _CODE_ONE, axis=1)
        rows: List[Tuple[Optional[bytes], List[int], bool]] = []
        for i, (bad, unused) in enumerate(zip(any_tampered, n_unused)):
            if unused == E_CELLS:
                rows.append((None, [], True))
            elif bad:
                rows.append((None, np.flatnonzero(tampered[i]).tolist(),
                             False))
            elif unused:
                rows.append((None, [], False))
            else:
                rows.append((packed[i].tobytes(), [], False))
        return rows

    def verify_all(self) -> List[VerificationResult]:
        """Verify every registered line and every conflicting head
        (audit sweep, batched), in start order."""
        return self.verify_lines(sorted(
            [*self._lines, *(rec.start for rec in self.line_conflicts)]))

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

    def _read_head(self, start: int) -> Optional[LineRecord]:
        """The line that block ``start``'s electrical payload describes,
        or None when it holds no well-formed head (unreadable, failing
        its CRC, or misplaced: see :meth:`_misplaced`).  Registers
        nothing."""
        payload, _tampered, _virgin = self._ers_payload(start)
        if payload is None:
            return None
        try:
            meta = ElectricalPayload.unpack(payload)
        except ReadError:
            return None
        if self._misplaced(start, meta) is not None:
            return None
        return LineRecord(start=start, n_blocks=1 << meta.n_blocks_log2,
                          line_hash=meta.line_hash, timestamp=meta.timestamp)

    def load_line(self, start: int) -> Optional[LineRecord]:
        """Register the one line whose head is block ``start``: a single
        ers read, with no look at any other block, so nothing checks
        that the line holds no other head (:meth:`scan_lines` does).
        Returns None when the block does not hold a well-formed head.
        """
        record = self._read_head(start)
        if record is not None:
            self._register(record)
        return record

    def scan_lines(self) -> List[LineRecord]:
        """Rebuild the line registry from the medium alone: the "fsck
        style scan ... would definitely recover (albeit slowly) all the
        heated files" of Section 5.2, and how
        :meth:`repro.fs.lfs.SeroFS.mount` finds lines.

        First every block that is not bad, line interiors included, is
        probed electrically and read as a head; then each well-formed
        head is registered unless its extent holds another head.  Such
        a head is a conflict (:attr:`line_conflicts`): it covers another
        head's heated block, so :meth:`verify_all` can never read it
        ``INTACT``.  Returns the registered records, in start order.
        """
        self._lines.clear()
        self._block_to_line.clear()
        heads: List[LineRecord] = []
        for pba in range(self.total_blocks):
            if pba in self.bad_blocks or not self.probe_block_electrical(pba):
                continue
            # tampered, partial or misplaced heads are surfaced by
            # verify, not registered
            head = self._read_head(pba)
            if head is not None:
                heads.append(head)
        recovered: List[LineRecord] = []
        conflicts: List[LineRecord] = []
        for head, after in zip(heads, heads[1:] + [None]):
            # aligned claims nest or are disjoint, so a head holds
            # another exactly when the next one starts inside it
            if after is not None and after.start < head.start + head.n_blocks:
                conflicts.append(head)
            else:
                self._register(head)
                recovered.append(head)
        self.line_conflicts = tuple(conflicts)
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
