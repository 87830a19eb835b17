"""The query layer: term/field filters, facets, snippet highlighting.

The grammar is deliberately small — a query string is whitespace-split
into *field filters* (``verdict:cell-tampered``, ``member:m2``,
``tenant:acme``) and *free terms* (bare words, matched against every
tokenised field of a document).  A document matches when **all**
filters and **all** terms match; scoring is the summed occurrence
count of the free terms, with the document id as the deterministic
tie-break, so two runs (or an indexed and a full-scan execution) order
hits identically.

Snippet highlighting follows the openaleph-search parameter surface
(SNIPPETS.md snippet 2): a ``fragment_size`` / ``fragment_count`` pair
resolved through the policy chain
(``repro.api.policy.resolve("search_fragment_size")`` /
``REPRO_SEARCH_FRAGMENT_SIZE`` and friends), ``fragment_count=0``
meaning "the whole text, highlighted".  Matches are wrapped in
``<em>`` tags.

:func:`scan_search` is the *naive full-scan equivalent* of
:meth:`repro.search.EvidenceIndex.search` — it re-tokenises every
document per query.  It exists as the oracle the inverted index is
tested against: both paths must return identical results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api.policy import resolve

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_FIELD_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def tokenize(text: str) -> List[str]:
    """Lowercase alphanumeric tokens of ``text``, in order."""
    return _TOKEN_RE.findall(text.lower())


def normalize(value: object) -> str:
    """Canonical match form of one document field value (filters
    compare against this, so ``tampered:true`` matches a bool)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value).lower()


def doc_terms(fields: Mapping[str, object]) -> Dict[str, int]:
    """Token → occurrence count over every value of one document."""
    counts: Dict[str, int] = {}
    for value in fields.values():
        text = value if isinstance(value, str) else normalize(value)
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
    return counts


@dataclass(frozen=True)
class Query:
    """One parsed query: free terms plus exact field filters."""

    terms: Tuple[str, ...] = ()
    filters: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Query":
        """Parse the ``field:value`` / free-term grammar.

        A piece with a colon whose left side is a field identifier
        becomes a filter (value lowercased, matched exactly against
        the normalised field value); everything else tokenises into
        free terms.
        """
        terms: List[str] = []
        filters: List[Tuple[str, str]] = []
        for piece in text.split():
            name, sep, value = piece.partition(":")
            if sep and value and _FIELD_RE.match(name):
                filters.append((name, value.lower()))
            else:
                terms.extend(tokenize(piece))
        return cls(terms=tuple(terms), filters=tuple(filters))

    def to_text(self) -> str:
        """Canonical text form (parses back to an equal query)."""
        return " ".join([f"{name}:{value}"
                         for name, value in self.filters]
                        + list(self.terms))

    def matches(self, fields: Mapping[str, object]) -> bool:
        """Whether one document satisfies every filter and term."""
        for name, value in self.filters:
            if name not in fields or normalize(fields[name]) != value:
                return False
        if self.terms:
            counts = doc_terms(fields)
            for term in self.terms:
                if term not in counts:
                    return False
        return True


def as_query(query: Union[str, Query]) -> Query:
    """Coerce a query string (or pass a parsed query through)."""
    if isinstance(query, Query):
        return query
    if isinstance(query, str):
        return Query.parse(query)
    raise TypeError(
        f"query must be a str or Query, got {type(query).__name__}")


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class SearchHit:
    """One matching document, scored and optionally highlighted."""

    doc_id: str
    score: int
    fields: Dict[str, object]
    highlights: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SearchResult:
    """One executed query: ordered hits plus facet aggregations.

    ``total`` counts every match; ``hits`` is bounded by the resolved
    ``max_hits``.  ``facets`` maps each requested facet field to
    ``(value, count)`` pairs over the *full* match set, ordered by
    descending count then value.
    """

    query: str
    total: int
    hits: Tuple[SearchHit, ...]
    facets: Dict[str, Tuple[Tuple[str, int], ...]]


# ---------------------------------------------------------------------------
# Highlighting


def highlight_fragments(text: str, terms: Sequence[str], *,
                        fragment_size: Optional[int] = None,
                        fragment_count: Optional[int] = None
                        ) -> Tuple[str, ...]:
    """Snippets of ``text`` around term matches, matches in ``<em>``.

    ``fragment_size`` / ``fragment_count`` resolve through the policy
    chain when not passed explicitly; ``fragment_count=0`` returns the
    whole text as one highlighted fragment.  No term occurrence →
    no fragments.
    """
    size, _src = resolve("search_fragment_size", fragment_size)
    count, _src = resolve("search_fragment_count", fragment_count)
    lower = text.lower()
    spans: List[Tuple[int, int]] = []
    for term in dict.fromkeys(t.lower() for t in terms if t):
        for match in re.finditer(re.escape(term), lower):
            spans.append(match.span())
    if not spans:
        return ()
    spans.sort()
    if count == 0:
        return (_emphasize(text, spans, 0, len(text),
                           ellipsis=False),)
    fragments: List[str] = []
    covered_to = -1
    for start, end in spans:
        if start < covered_to:
            continue  # this occurrence already sits in a fragment
        window_start = max(0, start - max(0, (size - (end - start))) // 2)
        window_end = min(len(text), window_start + max(size, end - start))
        fragments.append(_emphasize(text, spans, window_start,
                                    window_end, ellipsis=True))
        covered_to = window_end
        if len(fragments) >= count:
            break
    return tuple(fragments)


def _emphasize(text: str, spans: Sequence[Tuple[int, int]],
               window_start: int, window_end: int, *,
               ellipsis: bool) -> str:
    """One window of ``text`` with the spans inside it ``<em>``-wrapped."""
    pieces: List[str] = []
    if ellipsis and window_start > 0:
        pieces.append("…")
    cursor = window_start
    for start, end in spans:
        if end <= window_start or start >= window_end:
            continue
        start, end = max(start, window_start), min(end, window_end)
        pieces.append(text[cursor:start])
        pieces.append(f"<em>{text[start:end]}</em>")
        cursor = end
    pieces.append(text[cursor:window_end])
    if ellipsis and window_end < len(text):
        pieces.append("…")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Shared result assembly (indexed and full-scan paths must agree)


def assemble_result(query: Query,
                    matched: Mapping[str, Mapping[str, object]],
                    term_counts: Callable[[str], Mapping[str, int]], *,
                    facets: Sequence[str] = (),
                    limit: Optional[int] = None,
                    highlight: bool = False,
                    fragment_size: Optional[int] = None,
                    fragment_count: Optional[int] = None
                    ) -> SearchResult:
    """Order, bound, facet and highlight one query's match set.

    ``term_counts(doc_id)`` supplies the token occurrence counts the
    score sums — the inverted index serves its stored counters, the
    full scan recomputes them — so both executions produce identical
    :class:`SearchResult` objects.
    """
    max_hits, _src = resolve("search_max_hits", limit)

    def score(doc_id: str) -> int:
        if not query.terms:
            return 0
        counts = term_counts(doc_id)
        return sum(counts.get(term, 0) for term in query.terms)

    ordered = sorted(matched, key=lambda doc_id: (-score(doc_id),
                                                  doc_id))
    facet_out: Dict[str, Tuple[Tuple[str, int], ...]] = {}
    for facet in facets:
        counts: Dict[str, int] = {}
        for doc_id in matched:
            value = matched[doc_id].get(facet)
            if value is None:
                continue
            key = normalize(value)
            counts[key] = counts.get(key, 0) + 1
        facet_out[facet] = tuple(sorted(
            counts.items(), key=lambda pair: (-pair[1], pair[0])))
    hits: List[SearchHit] = []
    for doc_id in ordered[:max_hits]:
        fields = dict(matched[doc_id])
        highlights: Tuple[str, ...] = ()
        if highlight and query.terms and isinstance(
                fields.get("text"), str):
            highlights = highlight_fragments(
                fields["text"], query.terms,
                fragment_size=fragment_size,
                fragment_count=fragment_count)
        hits.append(SearchHit(doc_id=doc_id, score=score(doc_id),
                              fields=fields, highlights=highlights))
    return SearchResult(query=query.to_text(), total=len(matched),
                        hits=tuple(hits), facets=facet_out)


def scan_search(documents: Mapping[str, Mapping[str, object]],
                query: Union[str, Query], *,
                facets: Sequence[str] = (),
                limit: Optional[int] = None,
                highlight: bool = False,
                fragment_size: Optional[int] = None,
                fragment_count: Optional[int] = None) -> SearchResult:
    """Full-scan execution: test every document against the query.

    The deliberately naive baseline (and oracle) for
    :meth:`repro.search.EvidenceIndex.search` — no postings, every
    document re-tokenised per query.
    """
    parsed = as_query(query)
    matched = {doc_id: fields for doc_id, fields in documents.items()
               if parsed.matches(fields)}
    return assemble_result(
        parsed, matched,
        lambda doc_id: doc_terms(matched[doc_id]),
        facets=facets, limit=limit, highlight=highlight,
        fragment_size=fragment_size, fragment_count=fragment_count)
