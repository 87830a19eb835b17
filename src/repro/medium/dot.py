"""Single-dot state view (Fig 2's three-state bit).

The medium stores dot state in flat numpy arrays for scale; this module
provides the per-dot object view used by tests and examples, plus the
canonical state classification:

* ``0`` / ``1`` — healthy perpendicular dot magnetised down / up,
* ``H`` — heated: interfaces mixed, easy axis in plane, no stable
  perpendicular remanence (reads back "more or less random"),
* ``U`` is not a separate physical state — it simply denotes any
  un-heated dot when only the heated/unheated distinction matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BitState(enum.Enum):
    """Logical state of one dot (top of Fig 2)."""

    ZERO = "0"
    ONE = "1"
    HEATED = "H"


#: Sharpness below which a dot's easy axis has fallen in plane and the
#: dot counts as heated.  Derived from the dot anisotropy balance (see
#: ``repro.physics.anisotropy``): with default parameters the easy axis
#: flips at sharpness ~0.15; 0.15 is used as the hard classification
#: threshold throughout the medium.
HEATED_SHARPNESS_THRESHOLD = 0.15


def classify(magnetization: int, sharpness: float) -> BitState:
    """Classify a dot from its stored magnetisation and sharpness."""
    if sharpness < HEATED_SHARPNESS_THRESHOLD:
        return BitState.HEATED
    return BitState.ONE if magnetization > 0 else BitState.ZERO


@dataclass
class DotView:
    """Read-only snapshot of one dot, for inspection and display.

    Attributes:
        index: dot index on the medium.
        magnetization: +1 (up) / -1 (down); meaningless when heated.
        sharpness: interface sharpness in [0, 1].
    """

    index: int
    magnetization: int
    sharpness: float

    @property
    def state(self) -> BitState:
        """Fig 2 state of the dot."""
        return classify(self.magnetization, self.sharpness)

    def __str__(self) -> str:
        return self.state.value
