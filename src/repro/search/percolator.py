"""The percolator: standing queries that fire typed tamper alerts.

The classic search flow asks "which documents match this query?"; the
percolator inverts it — queries are *registered* and every changed
document is matched against the standing set (the index/percolator
split follows openaleph-search).  When an audit fold flips a document
into matching a standing query, a typed :class:`TamperAlert` fires;
the ``(query, document)`` pair is then remembered so the same
unchanged verdict does not re-fire on the next audit pass.  When a
later fold flips the document back out of matching (e.g. the line was
re-sealed clean), the pair is discarded and a future regression fires
again.

That transition discipline is what makes the soak's invariant checks
meaningful: an injected tamper fires its standing alert **exactly
once**, and a clean run fires none.  All state changes flow through
:meth:`Percolator.percolate`, driven by the index's journaled folds,
so a :meth:`repro.search.EvidenceIndex.rebuild` reproduces the exact
alert sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .query import Query, as_query


@dataclass(frozen=True)
class StandingQuery:
    """One registered query, optionally confined to a tenant."""

    name: str
    query: str
    tenant: Optional[str] = None


@dataclass(frozen=True)
class TamperAlert:
    """One standing-query firing, pinned to the epoch and journal
    tick of the audit fold that triggered it."""

    name: str
    query: str
    doc_id: str
    epoch: int
    tick: int
    member: Optional[str] = None
    label: Optional[str] = None
    verdict: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "query": self.query,
            "doc_id": self.doc_id,
            "epoch": self.epoch,
            "tick": self.tick,
            "member": self.member,
            "label": self.label,
            "verdict": self.verdict,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "TamperAlert":
        return cls(
            name=str(payload["name"]),
            query=str(payload["query"]),
            doc_id=str(payload["doc_id"]),
            epoch=int(payload["epoch"]),  # type: ignore[arg-type]
            tick=int(payload["tick"]),  # type: ignore[arg-type]
            member=(None if payload.get("member") is None
                    else str(payload["member"])),
            label=(None if payload.get("label") is None
                   else str(payload["label"])),
            verdict=(None if payload.get("verdict") is None
                     else str(payload["verdict"])),
        )


@dataclass
class Percolator:
    """Standing-query registry plus the fired-alert log."""

    standing: Dict[str, StandingQuery] = field(default_factory=dict)
    alerts: List[TamperAlert] = field(default_factory=list)
    _compiled: Dict[str, Query] = field(default_factory=dict)
    # (query name, doc id) pairs currently matching — the transition
    # memory that makes alerts fire exactly once per flip.
    _matched: Set[Tuple[str, str]] = field(default_factory=set)

    def register(self, standing: StandingQuery) -> None:
        """Register (or replace) a standing query by name."""
        as_query(standing.query)  # validate the grammar up front
        if standing.name in self.standing:
            self._forget(standing.name)
        self.standing[standing.name] = standing
        self._compiled[standing.name] = as_query(standing.query)

    def unregister(self, name: str) -> bool:
        """Drop a standing query; fired alerts stay in the log."""
        if name not in self.standing:
            return False
        del self.standing[name]
        del self._compiled[name]
        self._forget(name)
        return True

    def _forget(self, name: str) -> None:
        self._matched = {pair for pair in self._matched
                         if pair[0] != name}

    def percolate(self, doc_id: str, fields: Mapping[str, object], *,
                  epoch: int, tick: int) -> List[TamperAlert]:
        """Match one changed document against every standing query.

        Fires on the transition *into* matching; forgets on the
        transition out, re-arming the pair.  Returns (and logs) the
        alerts fired by this document change.
        """
        fired: List[TamperAlert] = []
        for name in sorted(self.standing):
            sq = self.standing[name]
            if sq.tenant is not None and \
                    fields.get("tenant") != sq.tenant:
                continue
            key = (name, doc_id)
            if self._compiled[name].matches(fields):
                if key in self._matched:
                    continue
                self._matched.add(key)
                member = fields.get("member")
                label = fields.get("label") or fields.get("path")
                verdict = fields.get("verdict")
                alert = TamperAlert(
                    name=name, query=sq.query, doc_id=doc_id,
                    epoch=epoch, tick=tick,
                    member=None if member is None else str(member),
                    label=None if label is None else str(label),
                    verdict=None if verdict is None else str(verdict))
                self.alerts.append(alert)
                fired.append(alert)
            else:
                self._matched.discard(key)
        return fired

    def state_digest_payload(self) -> Dict[str, object]:
        """The percolator's canonical state, for index fingerprints."""
        return {
            "standing": [
                {"name": sq.name, "query": sq.query,
                 "tenant": sq.tenant}
                for _, sq in sorted(self.standing.items())
            ],
            "alerts": [alert.to_json() for alert in self.alerts],
            "matched": sorted(list(pair) for pair in self._matched),
        }
