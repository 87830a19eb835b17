"""The physical shred operation (Section 8, "Deletion").

"It is possible to implement a physical shred operation on the device
(similar to what has been achieved for optical storage), which in our
case would physically destroy the expired data by precise local
heating."

Shredding a heated line heats *every* dot of every data block, which

* destroys the data beyond any magnetic recovery (the same argument
  as for heat itself: even a FIB operator cannot rebuild a dot
  undetectably), and
* leaves an unmistakable, deliberate signature — a data block whose
  dots are *all* H can only be the result of a shred, never of the
  partial damage an attacker's ewb tampering produces.

The paper is explicit that shredding "is vulnerable to attacks by a
dishonest CEO and as such not wholly satisfactory": a shred destroys
the data while keeping the *fact* of destruction evident.  Policy —
who may shred, and when — stays outside the device, exactly as in the
paper's discussion of retention periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from ..errors import DeviceError

if TYPE_CHECKING:  # pragma: no cover
    from .sero import SERODevice


class ShredError(DeviceError):
    """The shred operation could not be applied."""


@dataclass
class ShredReport:
    """Outcome of shredding one line.

    Attributes:
        start: line start PBA.
        data_blocks: number of data blocks destroyed.
        dots_heated: heat pulses spent.
    """

    start: int
    data_blocks: int
    dots_heated: int


def shred_line(device: "SERODevice", start: int) -> ShredReport:
    """Physically destroy the data blocks of a heated line.

    Only heated lines can be shredded: shredding WMRM data would be an
    ordinary overwrite-style deletion, for which the paper's answer is
    simply ``write``.  The hash block is left untouched so the line
    keeps announcing "data existed here and was destroyed".
    """
    record = device.line_of_block(start)
    if record is None or record.start != start:
        raise ShredError(f"no heated line starts at block {start}")
    dots = 0
    for pba in range(start + 1, start + record.n_blocks):
        span_start, span_end = device.geometry.block_span(pba)
        device.scanner.seek_to_block(pba)
        device.scanner.transfer(span_end - span_start, "ewb")
        device.medium.heat_span(span_start, span_end,
                                vectorized=device.config.span_engine)
        dots += span_end - span_start
    return ShredReport(start=start, data_blocks=record.n_blocks - 1,
                       dots_heated=dots)


def is_line_shredded(device: "SERODevice", start: int) -> bool:
    """True when every data-block dot of the line is heated.

    The all-H signature distinguishes a deliberate shred from partial
    ewb tampering (which an attacker performs sparingly: heating a
    whole line takes as long as a shred and is just as loud).
    """
    record = device.line_of_block(start)
    if record is None or record.start != start:
        return False
    for pba in range(start + 1, start + record.n_blocks):
        span_start, span_end = device.geometry.block_span(pba)
        heated = device.medium.image_heated(range(span_start, span_end))
        if not heated.all():
            return False
    return True


def classify_destroyed_line(device: "SERODevice", start: int) -> str:
    """Classify a non-intact line: ``"shredded"`` (deliberate, all-H
    data), ``"tampered"`` (anything else), or ``"intact"``."""
    from .sero import VerifyStatus

    result = device.verify_line(start)
    if result.status is VerifyStatus.INTACT:
        return "intact"
    if is_line_shredded(device, start):
        return "shredded"
    return "tampered"


def shredded_lines(device: "SERODevice") -> List[int]:
    """Starts of all fully shredded lines on the device."""
    return [rec.start for rec in device.heated_lines
            if is_line_shredded(device, rec.start)]
