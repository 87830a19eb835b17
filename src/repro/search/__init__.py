"""Searchable evidence index with standing tamper alerts.

An inverted index over sealed-object metadata, per-member audit
verdicts, placement, and evidence exports:

- :class:`EvidenceIndex` — the index itself: journaled ingest,
  postings-backed :meth:`~EvidenceIndex.search` (term/field filters,
  facets, snippet highlighting), :meth:`~EvidenceIndex.rebuild` from
  the hash-chained journal, and the percolator hooks.
- :func:`scan_search` — the naive full-scan equivalent (the oracle:
  both paths return identical results).
- :class:`Percolator` / :class:`StandingQuery` /
  :class:`TamperAlert` — standing queries that fire typed alerts on
  the audit fold that flips a document into matching.

Incremental maintenance rides the fleet's existing passes: call
``FleetStore.attach_indexer(index)`` and every put/seal/delete/
export/audit feeds the index from payloads the fleet already
computed — no extra fleet traffic.  The gateway exposes the index at
``/v1/t/<tenant>/search`` (tenant-confined) and ``/v1/admin/alerts``.

Highlighting knobs (`fragment_size`, `fragment_count`, `max_hits`)
resolve through the policy chain — explicit argument >
``repro.engine(...)`` context > ``REPRO_SEARCH_*`` env vars >
defaults.
"""

from .index import (
    EvidenceIndex,
    IndexJournal,
    JournalEntry,
    JournalError,
    MAX_TEXT_CHARS,
)
from .percolator import Percolator, StandingQuery, TamperAlert
from .query import (
    Query,
    SearchHit,
    SearchResult,
    as_query,
    doc_terms,
    highlight_fragments,
    normalize,
    scan_search,
    tokenize,
)

__all__ = [
    "EvidenceIndex",
    "IndexJournal",
    "JournalEntry",
    "JournalError",
    "MAX_TEXT_CHARS",
    "Percolator",
    "StandingQuery",
    "TamperAlert",
    "Query",
    "SearchHit",
    "SearchResult",
    "as_query",
    "doc_terms",
    "highlight_fragments",
    "normalize",
    "scan_search",
    "tokenize",
]
