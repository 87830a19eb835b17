"""Compliance / retention workload (Sections 1, 2 and 8).

SOX-style regulation produces a steady stream of record batches that
must become immutable on arrival and stay readable for years.  This
workload writes one batch per period and heats it immediately; the
device's WMRM area shrinks monotonically — the Section 8 lifetime
behaviour ("the read/write area gradually shrinks ... until the device
has become a pure read-only device") that ``test_artifact[sec8-life]``
in ``tests/test_paper.py`` measures.  Batches carry an expiry period so the decommissioning
policy ("data segregated by expiry date") can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import NoSpaceError
from ..fs.lfs import SeroFS


@dataclass
class RetentionBatch:
    """One period's sealed compliance batch."""

    period: int
    path: str
    expiry_period: int
    line_start: int


@dataclass
class ComplianceArchive:
    """Writes and seals one record batch per period.

    Args:
        fs: file system to archive into.
        batch_bytes: size of each batch.
        retention_periods: how long batches must be kept.
    """

    fs: SeroFS
    batch_bytes: int = 4096
    retention_periods: int = 100
    _batches: List[RetentionBatch] = field(default_factory=list)

    def __post_init__(self) -> None:
        from ..errors import FileExistsError_

        try:
            self.fs.mkdir("/archive")
        except FileExistsError_:
            pass

    def run_period(self, period: int, seed: Optional[int] = None) -> RetentionBatch:
        """Write and heat one period's batch.

        Raises :class:`~repro.errors.NoSpaceError` when the device's
        WMRM area is exhausted — end of device life.
        """
        rng = np.random.default_rng(seed if seed is not None else period)
        data = rng.integers(0, 256, size=self.batch_bytes,
                            dtype=np.uint8).tobytes()
        path = f"/archive/batch-{period:06d}"
        self.fs.create(path, data)
        record = self.fs.heat_file(path, timestamp=period)
        batch = RetentionBatch(period=period, path=path,
                               expiry_period=period + self.retention_periods,
                               line_start=record.start)
        self._batches.append(batch)
        return batch

    def run_until_full(self, max_periods: int = 10_000) -> int:
        """Run periods until the device fills; returns periods done."""
        done = 0
        for period in range(max_periods):
            try:
                self.run_period(period)
            except NoSpaceError:
                break
            done += 1
        return done

    @property
    def batches(self) -> List[RetentionBatch]:
        """All sealed batches."""
        return list(self._batches)

    def expired(self, current_period: int) -> List[RetentionBatch]:
        """Batches past their retention period.

        Heated data cannot be deleted; expiry only tells the operator
        when the *device* may be decommissioned (Section 8: "the
        lifetime of the data must be matched to the lifetime of the
        medium").
        """
        return [b for b in self._batches if b.expiry_period <= current_period]

    def decommissionable(self, current_period: int) -> bool:
        """True when every sealed batch has expired."""
        return bool(self._batches) and \
            len(self.expired(current_period)) == len(self._batches)

    def audit(self) -> Dict[str, object]:
        """Verify every sealed batch in one batched sweep
        (:meth:`~repro.device.sero.SERODevice.verify_lines`); returns
        {path: VerificationResult}."""
        results = self.fs.device.verify_lines(
            [b.line_start for b in self._batches])
        return {b.path: r for b, r in zip(self._batches, results)}
