"""The threat model of Section 5 (after Hsu & Ong / Hasan et al.).

A powerful insider — "a disgruntled employee, or a dishonest CEO" —
"regrets the existence of a certain stored record" and wants the
system to forget it without drawing attention.  He has root on every
connected host, can detach the device and drive it raw from a laptop
for a limited time, but will not physically destroy the device or
remove it for long (that *would* draw attention).

The asset is the integrity and availability of specific heated files.
Confidentiality and authenticity are explicitly out of scope (no
cryptographic keys anywhere in the system).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class AccessLevel(enum.Enum):
    """How deep the attacker reaches."""

    FILE_SYSTEM = "file-system"     # normal FS calls with root
    DEVICE = "device"               # raw block commands to the device
    MEDIUM = "medium"               # laptop-with-interface: raw dot access


@dataclass(frozen=True)
class ThreatModel:
    """Capabilities assumed for the Section 5 analysis."""

    access: AccessLevel = AccessLevel.MEDIUM
    may_remove_device: bool = False       # would draw attention
    may_destroy_physically: bool = False  # would draw attention
    has_focused_ion_beam: bool = False    # Section 8 argues even a FIB
    # operator cannot rebuild a destroyed dot undetectably
    notes: List[str] = field(default_factory=list)


#: The paper's default adversary.
POWERFUL_INSIDER = ThreatModel()
