"""Detection harness: run an attack, then look for the evidence.

Each :class:`AttackOutcome` records what the paper predicts for that
attack (detected / harmless / recovered) and what the verification
machinery actually observed, so the Section 5 benchmark can print the
full case matrix and the test suite can assert every row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..device.sero import VerificationResult


class Expectation(enum.Enum):
    """What Section 5 says should happen."""

    HARMLESS = "harmless"     # the attack has no semantic effect
    DETECTED = "detected"     # verify exposes it
    REJECTED = "rejected"     # the device refuses the operation
    RECOVERED = "recovered"   # fsck/scan restores availability


@dataclass
class AttackOutcome:
    """Result of one attack scenario.

    Attributes:
        name: scenario identifier (matches Section 5 cases).
        expectation: the paper's predicted outcome.
        achieved: True when the observed behaviour matches it.
        verification: the relevant verify result, when applicable.
        notes: free-form explanation for the report.
    """

    name: str
    expectation: Expectation
    achieved: bool
    verification: Optional[VerificationResult] = None
    notes: str = ""


@dataclass
class SecurityReport:
    """Aggregated outcome of the whole attack matrix."""

    outcomes: List[AttackOutcome] = field(default_factory=list)

    def add(self, outcome: AttackOutcome) -> None:
        """Record one scenario outcome."""
        self.outcomes.append(outcome)

    @property
    def all_achieved(self) -> bool:
        """True when every scenario matched the paper's prediction."""
        return all(outcome.achieved for outcome in self.outcomes)

    def rows(self) -> List[tuple]:
        """(name, expectation, achieved, status) rows for tabulation."""
        out = []
        for outcome in self.outcomes:
            status = (outcome.verification.status.value
                      if outcome.verification else "-")
            out.append((outcome.name, outcome.expectation.value,
                        "yes" if outcome.achieved else "NO", status))
        return out
