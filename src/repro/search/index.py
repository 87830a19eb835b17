"""The evidence index: hash-chained journal, inverted index, rebuild.

Everything the index knows arrives as a *journaled event* — a
``(kind, payload)`` record appended to a SHA-256 hash chain before it
is folded into the in-memory structures (the same journal-then-fold
discipline the store applies to its self-securing instruction log).
Incremental maintenance rides the fleet's own operation results: a
:class:`repro.api.FleetStore` with an attached indexer calls the
``note_*`` hooks with payloads the fleet already computed (seal
receipts, per-member audit verdicts folded back through
``StoreStatePatch``), so index updates cost **no extra fleet
traffic**.

Because the journal is the single source of truth,
:meth:`EvidenceIndex.rebuild` replays it into a fresh index that is
byte-identical (:meth:`EvidenceIndex.canonical_bytes`) to the
incrementally maintained one — including the percolator's standing
queries, transition memory, and fired-alert log, which are themselves
journaled events.  The index is never a second source of truth.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .percolator import Percolator, StandingQuery, TamperAlert
from .query import (
    Query,
    SearchResult,
    as_query,
    assemble_result,
    normalize,
    tokenize,
)

_JOURNAL_SEED = hashlib.sha256(b"repro-search-journal").digest()

#: Maximum evidence text retained per exhibit document — enough for
#: snippet highlighting without the index swallowing whole exports.
MAX_TEXT_CHARS = 4096


def _record_bytes(kind: str, payload: Mapping[str, object],
                  tick: int) -> bytes:
    return json.dumps({"kind": kind, "payload": payload, "tick": tick},
                      sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class JournalEntry:
    """One journaled index event, chained to its predecessor."""

    tick: int
    kind: str
    payload: Dict[str, object]
    digest: bytes


class JournalError(Exception):
    """The index journal's hash chain failed to verify."""


class IndexJournal:
    """An append-only hash chain of index events.

    Each entry's digest covers the previous digest plus the canonical
    JSON of the record, so any splice, drop, or edit breaks
    :meth:`verify` — the journal inherits the store's tamper-evidence
    discipline.
    """

    def __init__(self) -> None:
        self.entries: List[JournalEntry] = []
        self._head = _JOURNAL_SEED

    @property
    def head(self) -> bytes:
        return self._head

    def append(self, kind: str, payload: Mapping[str, object],
               tick: int) -> JournalEntry:
        digest = hashlib.sha256(
            self._head + _record_bytes(kind, payload, tick)).digest()
        entry = JournalEntry(tick=tick, kind=kind,
                             payload=dict(payload), digest=digest)
        self.entries.append(entry)
        self._head = digest
        return entry

    def verify(self) -> None:
        """Recompute the chain; raise :class:`JournalError` on any
        mismatch."""
        head = _JOURNAL_SEED
        for position, entry in enumerate(self.entries):
            expected = hashlib.sha256(
                head + _record_bytes(entry.kind, entry.payload,
                                     entry.tick)).digest()
            if expected != entry.digest:
                raise JournalError(
                    f"journal entry {position} ({entry.kind!r}, tick "
                    f"{entry.tick}) breaks the hash chain")
            head = expected
        if head != self._head:
            raise JournalError("journal head does not match the chain")

    def __len__(self) -> int:
        return len(self.entries)


def _tenant_of(path: str) -> Optional[str]:
    """Tenant namespace of a gateway-style ``/t/<tenant>/…`` path."""
    parts = path.split("/")
    if len(parts) >= 4 and parts[0] == "" and parts[1] == "t" \
            and parts[2]:
        return parts[2]
    return None


class EvidenceIndex:
    """Inverted index over store evidence, with standing alerts.

    Thread-safe: the fleet's notify hooks may land from worker
    threads; one re-entrant lock guards ingest and search.  Journal
    order under concurrency is whatever the threads produce — the
    rebuild identity holds for *that* order, which is the property
    the soak asserts at every checkpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.journal = IndexJournal()
        self.documents: Dict[str, Dict[str, object]] = {}
        self._value_postings: Dict[Tuple[str, str], Set[str]] = {}
        self._term_postings: Dict[str, Set[str]] = {}
        self._doc_terms: Dict[str, Dict[str, int]] = {}
        self._doc_values: Dict[str, Dict[str, str]] = {}
        # (member index, line_start) → doc id, so audit verdicts find
        # the object document their receipt sealed.
        self._line_to_doc: Dict[Tuple[int, int], str] = {}
        self.percolator = Percolator()
        self.epoch = 0
        self._tick = 0

    # -- ingest -----------------------------------------------------------

    def _ingest(self, kind: str,
                payload: Dict[str, object]) -> List[TamperAlert]:
        with self._lock:
            self._tick += 1
            self.journal.append(kind, payload, self._tick)
            return self._fold(kind, payload, self._tick)

    def note_put(self, path: str, *, size: int,
                 member: Optional[int] = None) -> None:
        """An object was written (or overwritten, un-sealing it)."""
        self._ingest("put", {"path": path, "size": size,
                             "member": member})

    def note_seal(self, receipt, *,
                  member: Optional[int] = None) -> None:
        """An object was sealed; ``receipt`` is a
        :class:`repro.api.SealReceipt`."""
        self._ingest("seal", {
            "path": receipt.path,
            "line_start": receipt.line_start,
            "n_blocks": receipt.n_blocks,
            "line_hash": receipt.line_hash.hex(),
            "timestamp": receipt.timestamp,
            "member": member,
        })

    def note_delete(self, path: str) -> None:
        """An object was deleted; its document leaves the index."""
        self._ingest("delete", {"path": path})

    def note_export(self, export, *, member: Optional[int] = None,
                    exhibits: Optional[Mapping[str, bytes]] = None
                    ) -> None:
        """An evidence bag was exported; ``export`` is a
        :class:`repro.api.EvidenceExport`.  ``exhibits`` optionally
        maps exhibit names to their bytes so snippets can highlight
        into the evidence text."""
        items = []
        exhibits = exhibits or {}
        # export.reports are labelled "<directory>/<name>" — join them
        # back to the bag items by exhibit name
        reports_by_name = {}
        prefix = f"{export.directory}/"
        for report in export.reports:
            if report.label and report.label.startswith(prefix):
                reports_by_name[report.label[len(prefix):]] = report
        for item in export.items:
            text = ""
            if item.name in exhibits:
                text = exhibits[item.name].decode(
                    "utf-8", "replace")[:MAX_TEXT_CHARS]
            report = reports_by_name.get(item.name)
            items.append({
                "name": item.name,
                "label": f"{export.directory}/{item.name}",
                "intact": report.intact if report else None,
                "verdict": report.status.value if report else None,
                "text": text,
            })
        self._ingest("export", {"case": export.case,
                                "intact": export.intact,
                                "member": member, "items": items})

    def note_audit(self, report, *,
                   failures: Sequence = ()) -> List[TamperAlert]:
        """A fleet audit completed; fold its typed per-member verdict
        records (:class:`repro.api.MemberVerdictRecord`) plus any
        degraded-pass :class:`repro.parallel.MemberFailure` slots.
        Returns the tamper alerts this pass fired."""
        with self._lock:
            return self._note_audit_locked(report, failures)

    def _note_audit_locked(self, report,
                           failures: Sequence) -> List[TamperAlert]:
        verdicts = []
        for record in getattr(report, "member_records", ()):
            verdicts.append({
                "member": record.member,
                "label": record.report.label,
                "status": record.report.status.value,
                "tamper_evident": record.report.tamper_evident,
                "line_start": record.report.line_start,
            })
        failure_payload = []
        for failure in failures:
            failure_payload.append({
                "member": failure.index,
                "error_type": failure.error_type,
                "message": failure.message,
                "timed_out": failure.timed_out,
            })
        return self._ingest("audit", {
            "epoch": self.epoch + 1,
            "clean": bool(getattr(report, "clean", False)),
            "verdicts": verdicts,
            "failures": failure_payload,
        })

    def register_alert(self, name: str, query: Union[str, Query], *,
                       tenant: Optional[str] = None) -> StandingQuery:
        """Register a standing query; journaled so rebuilds reproduce
        the alert sequence."""
        text = as_query(query).to_text() if isinstance(query, Query) \
            else str(query)
        as_query(text)  # validate before journaling
        self._ingest("register", {"name": name, "query": text,
                                  "tenant": tenant})
        return self.percolator.standing[name]

    def unregister_alert(self, name: str) -> bool:
        with self._lock:
            if name not in self.percolator.standing:
                return False
            self._ingest("unregister", {"name": name})
            return True

    # -- fold -------------------------------------------------------------

    def _fold(self, kind: str, payload: Mapping[str, object],
              tick: int) -> List[TamperAlert]:
        fired: List[TamperAlert] = []
        if kind == "put":
            path = str(payload["path"])
            doc_id = f"obj:{path}"
            fields = dict(self.documents.get(doc_id, ()))
            fields.update({"type": "object", "path": path,
                           "size": payload["size"], "sealed": False})
            # A rewrite un-seals: stale seal/verdict facts must go.
            for stale in ("line_start", "line_hash", "sealed_at",
                          "verdict", "tampered"):
                fields.pop(stale, None)
            self._set_doc(doc_id, self._common_fields(
                fields, path, payload.get("member")))
        elif kind == "seal":
            path = str(payload["path"])
            doc_id = f"obj:{path}"
            fields = dict(self.documents.get(doc_id, ()))
            fields.update({
                "type": "object", "path": path, "sealed": True,
                "line_start": payload["line_start"],
                "line_hash": payload["line_hash"],
                "sealed_at": payload["timestamp"],
            })
            fields = self._common_fields(fields, path,
                                         payload.get("member"))
            self._set_doc(doc_id, fields)
            member = payload.get("member")
            if member is not None:
                self._line_to_doc[(int(member),  # type: ignore[arg-type]
                                   int(payload["line_start"])  # type: ignore[arg-type]
                                   )] = doc_id
        elif kind == "delete":
            doc_id = f"obj:{payload['path']}"
            self._drop_doc(doc_id)
            self._line_to_doc = {key: value for key, value
                                 in self._line_to_doc.items()
                                 if value != doc_id}
        elif kind == "export":
            case = str(payload["case"])
            tenant = case.split("--", 1)[0] if "--" in case else None
            for item in payload["items"]:  # type: ignore[union-attr]
                doc_id = f"ev:{case}/{item['name']}"
                fields: Dict[str, object] = {
                    "type": "evidence", "case": case,
                    "name": item["name"], "label": item["label"],
                }
                if item.get("intact") is not None:
                    fields["intact"] = item["intact"]
                if item.get("verdict") is not None:
                    fields["verdict"] = item["verdict"]
                if tenant:
                    fields["tenant"] = tenant
                if payload.get("member") is not None:
                    fields["member"] = f"m{payload['member']}"
                if item["text"]:
                    fields["text"] = item["text"]
                self._set_doc(doc_id, fields)
        elif kind == "audit":
            self.epoch = int(payload["epoch"])  # type: ignore[arg-type]
            changed: List[str] = []
            for verdict in payload["verdicts"]:  # type: ignore[union-attr]
                member = int(verdict["member"])
                line_start = verdict.get("line_start")
                doc_id = None
                if line_start is not None:
                    doc_id = self._line_to_doc.get(
                        (member, int(line_start)))
                if doc_id is None:
                    label = verdict.get("label") or \
                        f"line:{line_start}"
                    doc_id = f"line:m{member}:{label}"
                fields = dict(self.documents.get(doc_id, ()))
                if not fields:
                    fields = {"type": "line", "member": f"m{member}"}
                    if verdict.get("label"):
                        fields["label"] = verdict["label"]
                    if line_start is not None:
                        fields["line_start"] = line_start
                fields["verdict"] = verdict["status"]
                fields["tampered"] = bool(verdict["tamper_evident"])
                fields["epoch"] = self.epoch
                self._set_doc(doc_id, fields)
                changed.append(doc_id)
            for failure in payload["failures"]:  # type: ignore[union-attr]
                member = int(failure["member"])
                doc_id = f"fail:e{self.epoch}:m{member}"
                self._set_doc(doc_id, {
                    "type": "failure", "member": f"m{member}",
                    "epoch": self.epoch,
                    "verdict": "member-failure",
                    "error_type": failure["error_type"],
                    "message": failure["message"],
                    "timed_out": failure["timed_out"],
                })
                changed.append(doc_id)
            for doc_id in changed:
                fired.extend(self.percolator.percolate(
                    doc_id, self.documents[doc_id],
                    epoch=self.epoch, tick=tick))
        elif kind == "register":
            self.percolator.register(StandingQuery(
                name=str(payload["name"]),
                query=str(payload["query"]),
                tenant=(None if payload.get("tenant") is None
                        else str(payload["tenant"]))))
        elif kind == "unregister":
            self.percolator.unregister(str(payload["name"]))
        else:  # pragma: no cover - journals only carry known kinds
            raise ValueError(f"unknown journal kind {kind!r}")
        return fired

    @staticmethod
    def _common_fields(fields: Dict[str, object], path: str,
                       member: Optional[object]) -> Dict[str, object]:
        tenant = _tenant_of(path)
        if tenant:
            fields["tenant"] = tenant
        if member is not None:
            fields["member"] = f"m{member}"
        return fields

    # -- postings maintenance --------------------------------------------

    def _set_doc(self, doc_id: str,
                 fields: Dict[str, object]) -> None:
        """Make ``fields`` the document ``doc_id``, moving only the
        postings of fields whose normalised value changed.

        A field's terms are ``tokenize(normalize(value))``, so equal
        normalised values post the same terms and the diff is exact
        (values compare normalised: ``True == 1`` but ``"true" !=
        "1"``).  ``fields`` must be a new dict, never the one stored:
        a caller may still hold the old document.
        """
        old_values = self._doc_values.get(doc_id, {})
        values = {name: normalize(value) for name, value in fields.items()}
        counts = self._doc_terms.setdefault(doc_id, {})
        for name, old in old_values.items():
            if values.get(name) == old:
                continue
            self._unpost(self._value_postings, (name, old), doc_id)
            for token in tokenize(old):
                left = counts[token] - 1
                if left:
                    counts[token] = left
                else:
                    del counts[token]
                    self._unpost(self._term_postings, token, doc_id)
        for name, value in values.items():
            if old_values.get(name) == value:
                continue
            self._value_postings.setdefault((name, value), set()).add(doc_id)
            for token in tokenize(value):
                if token in counts:
                    counts[token] += 1
                else:
                    counts[token] = 1
                    self._term_postings.setdefault(token, set()).add(doc_id)
        self._doc_values[doc_id] = values
        self.documents[doc_id] = fields

    def _drop_doc(self, doc_id: str) -> None:
        """The :meth:`_set_doc` update to an empty document, which
        then leaves the index."""
        if doc_id not in self.documents:
            return
        self._set_doc(doc_id, {})
        del self.documents[doc_id]
        del self._doc_values[doc_id]
        del self._doc_terms[doc_id]

    @staticmethod
    def _unpost(postings: Dict, key, doc_id: str) -> None:
        docs = postings[key]
        docs.discard(doc_id)
        if not docs:
            del postings[key]

    # -- search -----------------------------------------------------------

    def search(self, query: Union[str, Query] = "", *,
               facets: Sequence[str] = (),
               limit: Optional[int] = None,
               highlight: bool = False,
               fragment_size: Optional[int] = None,
               fragment_count: Optional[int] = None) -> SearchResult:
        """Execute one query against the postings.

        Candidates come from intersecting the filter and term
        postings (the empty query matches every document); the shared
        assembler then orders, bounds, facets and highlights — so the
        result is identical to :func:`repro.search.scan_search` over
        the same documents.
        """
        parsed = as_query(query)
        with self._lock:
            candidate_sets: List[Set[str]] = []
            for name, value in parsed.filters:
                candidate_sets.append(
                    self._value_postings.get((name, value), set()))
            for term in parsed.terms:
                candidate_sets.append(
                    self._term_postings.get(term, set()))
            if candidate_sets:
                candidates: Iterable[str] = set.intersection(
                    *candidate_sets)
            else:
                candidates = self.documents.keys()
            matched = {doc_id: self.documents[doc_id]
                       for doc_id in candidates}
            return assemble_result(
                parsed, matched,
                lambda doc_id: self._doc_terms[doc_id],
                facets=facets, limit=limit, highlight=highlight,
                fragment_size=fragment_size,
                fragment_count=fragment_count)

    # -- integrity --------------------------------------------------------

    def verify_journal(self) -> None:
        with self._lock:
            self.journal.verify()

    def rebuild(self) -> "EvidenceIndex":
        """Replay the journal into a fresh index.

        The journal is the single source of truth: the result is
        byte-identical (:meth:`canonical_bytes`) to this index,
        including fired alerts and percolator transition state.
        """
        with self._lock:
            entries = list(self.journal.entries)
        fresh = EvidenceIndex()
        for entry in entries:
            fresh._tick = entry.tick
            fresh.journal.append(entry.kind, entry.payload, entry.tick)
            fresh._fold(entry.kind, entry.payload, entry.tick)
        return fresh

    def canonical_bytes(self) -> bytes:
        """Canonical JSON of the entire index state — documents,
        postings, epoch/tick, journal head, percolator state — for
        the incremental ≡ rebuild byte-identity checks."""
        with self._lock:
            state = {
                "documents": {doc_id: dict(sorted(fields.items(),
                                                  key=lambda kv: kv[0]))
                              for doc_id, fields
                              in sorted(self.documents.items())},
                "value_postings": {
                    f"{name}={value}": sorted(postings)
                    for (name, value), postings
                    in sorted(self._value_postings.items())},
                "term_postings": {token: sorted(postings)
                                  for token, postings
                                  in sorted(self._term_postings.items())},
                "line_to_doc": {f"m{member}:{line_start}": doc_id
                                for (member, line_start), doc_id
                                in sorted(self._line_to_doc.items())},
                "epoch": self.epoch,
                "tick": self._tick,
                "journal_head": self.journal.head.hex(),
                "journal_len": len(self.journal),
                "percolator": self.percolator.state_digest_payload(),
            }
            return json.dumps(state, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")

    # -- read-only views --------------------------------------------------

    @property
    def alerts(self) -> List[TamperAlert]:
        with self._lock:
            return list(self.percolator.alerts)

    def standing_queries(self) -> List[StandingQuery]:
        with self._lock:
            return [self.percolator.standing[name]
                    for name in sorted(self.percolator.standing)]

    def __len__(self) -> int:
        with self._lock:
            return len(self.documents)
