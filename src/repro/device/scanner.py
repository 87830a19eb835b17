"""uSPAM scanner: the moving-sled actuator of Section 6.

The Twente uSPAM moves the *medium* under a fixed probe array with an
electrostatic stepper (uWalker / Harmonica drive).  For the storage
stack the actuator matters as a latency source: accessing a block means
sliding the sled so the block's dot field sits under the probes, then
streaming bits through the probe array.

The scanner tracks the sled position and converts block accesses into
seek + transfer charges on the device's :class:`CostAccount`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..medium.geometry import MediumGeometry
from .timing import CostAccount, TimingModel


@dataclass
class Scanner:
    """Sled position tracker and latency charger.

    Every probe serves its own small *field* of the medium and the
    sled only ever moves within one field span (all probes move
    together relative to their fields), so the seek distance to a
    block is its position *within* the probe field, not its absolute
    position on the medium — this is what keeps probe-storage seeks in
    the millisecond range despite Terabit capacities.

    Attributes:
        geometry: the medium's dot matrix.
        timing: latency parameters.
        account: the device clock being charged.
        field_span: probe field edge length [m].
    """

    geometry: MediumGeometry
    timing: TimingModel
    account: CostAccount
    field_span: float = 100e-6

    def __post_init__(self) -> None:
        self._x = 0.0
        self._y = 0.0
        self._last_block = None
        # per-bit time of each transfer kind, resolved once
        self._per_bit = {"mrb": self.timing.t_mrb, "mwb": self.timing.t_mwb,
                         "ewb": self.timing.t_ewb, "erb": self.timing.t_erb}

    def _field_position(self, pba: int) -> tuple:
        # A block's bits are striped across the probe array, so each
        # probe holds dots_per_block/parallelism dots of it; block pba
        # therefore starts at that per-probe offset along the field's
        # serpentine scan path.
        pitch = self.geometry.dot.pitch_x
        dots_per_field_row = max(int(self.field_span / pitch), 1)
        per_probe = max(self.geometry.dots_per_block // self.timing.parallelism, 1)
        offset = pba * per_probe
        col = offset % dots_per_field_row
        row = (offset // dots_per_field_row) % dots_per_field_row
        return (col * pitch, row * self.geometry.dot.pitch_y)

    def seek_to_block(self, pba: int) -> float:
        """Move the sled to block ``pba``; returns the seek time charged.

        Accessing the block after the previous one continues the scan
        motion (the probes stream while the sled keeps moving), so a
        sequential continuation costs no seek — this is what makes
        clustered log writes cheap (Section 4.1).
        """
        if self._last_block is not None and pba == self._last_block + 1:
            self._last_block = pba
            self._x, self._y = self._field_position(pba)
            return 0.0
        x, y = self._field_position(pba)
        distance = max(abs(x - self._x), abs(y - self._y))
        self._last_block = pba
        self._x, self._y = x, y
        if distance == 0.0:
            return 0.0  # already on target: no mechanical motion
        seek = self.timing.seek_time(distance)
        self.account.charge("seek", seek)
        return seek

    def seek_to_run(self, first: int, count: int) -> float:
        """Move the sled through the run of ``count`` blocks from
        ``first``; returns the seek time charged.

        Exactly :meth:`seek_to_block` over each block of the run: the
        seek to ``first``, then continuations, which charge nothing and
        leave the sled on the run's last block.
        """
        if count <= 0:
            return 0.0
        seek = self.seek_to_block(first)
        if count > 1:
            self._last_block = last = first + count - 1
            self._x, self._y = self._field_position(last)
        return seek

    def transfer(self, nbits: int, kind: str,
                 per_bit: Optional[float] = None) -> float:
        """Charge a transfer of ``nbits`` of the given kind.

        Args:
            nbits: bit count moved under the probe array.
            kind: one of ``"mrb"``, ``"mwb"``, ``"ewb"``, ``"erb"``.
            per_bit: per-bit time override.  erb transfers pass
                :meth:`~repro.device.timing.TimingModel.t_erb_for` here
                so multi-round electrical reads are charged their true
                ``1 + 4*rounds`` bit-operation cost (the default
                ``t_erb`` covers only the single-round sequence).
        """
        if per_bit is None:
            per_bit = self._per_bit[kind]
        t = self.timing.transfer_time(nbits, per_bit)
        self.account.charge(kind, t, ops=nbits)
        return t
