"""Latency/cost model of the SERO probe-storage device.

The paper gives the cost *structure* rather than absolute numbers: erb
"is at least 5 times slower than mrb, and ewb is also slower than mwb
because of the local heating process", so "the idea is to use the erb
and ewb operations sparingly" (Section 3).  The defaults below follow
the probe-storage literature the paper cites (Pozidis et al.: ~Mbit/s
per probe, large probe arrays, millisecond mechanical motion):

* magnetic bit read/write: 1 us per bit per probe,
* electrical write (heat pulse): 100 us per bit,
* probe-array parallelism: 64 probes work in parallel on a transfer,
* sled seek: 0.2 ms settle + distance / 10 mm/s.

The :class:`CostAccount` is a simple accumulating clock; every device
operation charges it, and benchmarks read per-category totals off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class TimingModel:
    """Per-operation latency parameters.

    Attributes:
        t_mrb: magnetic bit read time [s].
        t_mwb: magnetic bit write time [s].
        t_ewb: electrical (heat) bit write time [s].
        parallelism: probes transferring concurrently within a block.
        seek_settle: fixed mechanical settle per seek [s].
        seek_velocity: sled velocity [m/s].
    """

    t_mrb: float = 1.0e-6
    t_mwb: float = 1.0e-6
    t_ewb: float = 100.0e-6
    parallelism: int = 64
    seek_settle: float = 0.2e-3
    seek_velocity: float = 10.0e-3

    @property
    def t_erb(self) -> float:
        """Electrical bit read time [s]: the 5-step mrb/mwb sequence of
        Section 3 (1 mrb + 2 mwb + 2 mrb), hence exactly 5 bit ops."""
        return 3.0 * self.t_mrb + 2.0 * self.t_mwb

    def t_erb_for(self, rounds: int = 1) -> float:
        """Electrical bit read time [s] with ``rounds`` invert/verify
        rounds: 1 + 2*rounds mrb plus 2*rounds mwb, i.e. the
        ``1 + 4*rounds`` bit operations of ``BitOps.bit_cost``."""
        if rounds < 1:
            raise ValueError("erb needs at least one verification round")
        return (1 + 2 * rounds) * self.t_mrb + 2 * rounds * self.t_mwb

    def transfer_time(self, nbits: int, t_bit: float) -> float:
        """Time to move ``nbits`` with per-bit cost ``t_bit`` across the
        probe array."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        return math.ceil(nbits / self.parallelism) * t_bit

    def seek_time(self, distance_m: float) -> float:
        """Mechanical seek latency for a sled move of ``distance_m``."""
        return self.seek_settle + abs(distance_m) / self.seek_velocity


@dataclass
class CostAccount:
    """Accumulated device time, broken down by operation category."""

    elapsed: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)

    def charge(self, category: str, seconds: float, ops: int = 1) -> None:
        """Add ``seconds`` of latency under ``category``."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.elapsed += seconds
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds
        self.op_counts[category] = self.op_counts.get(category, 0) + ops

    def reset(self) -> None:
        """Zero the clock and all counters."""
        self.elapsed = 0.0
        self.by_category.clear()
        self.op_counts.clear()

    def __str__(self) -> str:
        parts = ", ".join(
            f"{k}={v * 1e3:.3f}ms" for k, v in sorted(self.by_category.items()))
        return f"CostAccount(total={self.elapsed * 1e3:.3f}ms; {parts})"
