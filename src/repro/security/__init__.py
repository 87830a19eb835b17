"""Security analysis of the SERO system (Section 5).

* :mod:`~repro.security.threat` — the powerful-insider threat model.
* :mod:`~repro.security.attacks` — medium-level attack implementations.
* :mod:`~repro.security.detection` — outcome records.
* :mod:`~repro.security.analysis` — the full Section 5 case matrix.
"""

from .analysis import SCENARIOS, run_attack_matrix
from .detection import AttackOutcome, Expectation, SecurityReport
from .threat import POWERFUL_INSIDER, AccessLevel, ThreatModel

__all__ = [
    "ThreatModel",
    "POWERFUL_INSIDER",
    "AccessLevel",
    "AttackOutcome",
    "Expectation",
    "SecurityReport",
    "SCENARIOS",
    "run_attack_matrix",
]
