"""The evidence index: query grammar, facets, highlighting, journal,
percolator, and the fleet hooks that feed it.

Four layers:

* **query layer** — the ``field:value`` / free-term grammar, the
  deterministic (-score, doc_id) hit order, facet aggregation over
  the full match set, and snippet highlighting through the
  ``REPRO_SEARCH_*`` policy chain;
* **journal + rebuild** — every ingest is journaled on a SHA-256
  hash chain before folding; ``rebuild()`` replays the journal into a
  byte-identical index, and a spliced journal fails ``verify()``;
* **percolator** — standing queries fire typed tamper alerts exactly
  on the transition into matching (no re-fire on an unchanged
  verdict; re-armed when the document stops matching);
* **fleet integration** — ``FleetStore.attach_indexer`` feeds the
  index from the ops' own typed payloads, including the
  ``member_records`` a fleet audit now carries.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.api import (
    FleetStore,
    MemberVerdictRecord,
    SealReceipt,
    StoreConfig,
)
from repro.api.policy import resolve
from repro.search import (
    EvidenceIndex,
    JournalError,
    Percolator,
    Query,
    StandingQuery,
    TamperAlert,
    as_query,
    highlight_fragments,
    scan_search,
)
from repro.security.attacks import mwb_data

CONFIG = StoreConfig(total_blocks=192)


# -- query grammar -------------------------------------------------------------


def test_parse_splits_filters_and_terms():
    q = Query.parse("verdict:cell-tampered member:m2 forged ledger")
    assert q.filters == (("verdict", "cell-tampered"), ("member", "m2"))
    assert q.terms == ("forged", "ledger")


def test_parse_round_trips_through_to_text():
    q = Query.parse("tenant:acme tampered:true audit")
    assert Query.parse(q.to_text()) == q


def test_non_field_colon_pieces_tokenize_as_terms():
    # "9:30" has no field-identifier left side: free terms
    q = Query.parse("9:30 Verdict")
    assert q.filters == ()
    assert set(q.terms) == {"9", "30", "verdict"}


def test_filters_match_normalized_values():
    q = Query.parse("tampered:true member:m1")
    assert q.matches({"tampered": True, "member": "m1"})
    assert not q.matches({"tampered": False, "member": "m1"})
    assert not q.matches({"tampered": True})


def test_terms_match_any_field():
    q = Query.parse("forged")
    assert q.matches({"text": "the FORGED block"})
    assert q.matches({"label": "forged-line"})
    assert not q.matches({"text": "clean"})


def test_as_query_coerces_and_rejects():
    assert as_query("a:b") == Query.parse("a:b")
    parsed = Query.parse("x")
    assert as_query(parsed) is parsed
    with pytest.raises(TypeError):
        as_query(42)


# -- search over the index -----------------------------------------------------


def _tiny_index() -> EvidenceIndex:
    index = EvidenceIndex()
    for i in range(6):
        index.note_put(f"/t/acme/obj-{i}", size=10 * (i + 1),
                       member=i % 2)
    index.note_put("/t/beta/other", size=5, member=0)
    return index


def test_empty_query_matches_everything():
    index = _tiny_index()
    result = index.search("")
    assert result.total == 7 == len(index)


def test_filter_narrow_and_facets_over_full_match_set():
    index = _tiny_index()
    result = index.search("tenant:acme", facets=("member",), limit=2)
    assert result.total == 6
    assert len(result.hits) == 2  # bounded by limit, total is not
    assert dict(result.facets["member"]) == {"m0": 3, "m1": 3}


def test_hit_order_is_deterministic():
    index = EvidenceIndex()
    index.note_put("/a", size=1)
    index.note_put("/b", size=1)
    first = index.search("")
    second = index.search("")
    assert [h.doc_id for h in first.hits] == \
        [h.doc_id for h in second.hits] == ["obj:/a", "obj:/b"]


def test_scan_search_is_an_exact_oracle():
    index = _tiny_index()
    for q in ("", "tenant:acme", "obj", "member:m1 obj",
              "tenant:acme member:m0"):
        indexed = index.search(q, facets=("member", "tenant"))
        scanned = scan_search(index.documents, q,
                              facets=("member", "tenant"))
        assert indexed == scanned, q


# -- highlighting + the policy chain ------------------------------------------


def test_highlight_wraps_matches_in_em():
    frags = highlight_fragments("a forged entry", ["forged"],
                                fragment_size=40, fragment_count=1)
    assert frags == ("a <em>forged</em> entry",)


def test_highlight_windows_and_ellipses():
    text = "x" * 50 + " forged " + "y" * 50
    (frag,) = highlight_fragments(text, ["forged"],
                                  fragment_size=20, fragment_count=1)
    assert "<em>forged</em>" in frag
    assert frag.startswith("…") and frag.endswith("…")
    assert len(frag) < len(text)


def test_fragment_count_zero_highlights_whole_text():
    text = "forged start and forged end"
    (frag,) = highlight_fragments(text, ["forged"], fragment_count=0)
    assert frag == "<em>forged</em> start and <em>forged</em> end"


def test_no_occurrence_no_fragments():
    assert highlight_fragments("clean text", ["forged"]) == ()


def test_policy_chain_env_then_context_then_explicit(monkeypatch):
    monkeypatch.delenv("REPRO_SEARCH_FRAGMENT_SIZE", raising=False)
    assert resolve("search_fragment_size") == (80, "default")
    monkeypatch.setenv("REPRO_SEARCH_FRAGMENT_SIZE", "33")
    assert resolve("search_fragment_size") == (33, "env")
    with repro.engine(search_fragment_size=21):
        assert resolve("search_fragment_size") == (21, "context")
        assert resolve("search_fragment_size", 7) == (7, "explicit")
    monkeypatch.setenv("REPRO_SEARCH_FRAGMENT_SIZE", "not-a-number")
    assert resolve("search_fragment_size") == (80, "default")


def test_policy_chain_fragment_count_and_max_hits(monkeypatch):
    monkeypatch.setenv("REPRO_SEARCH_FRAGMENT_COUNT", "0")
    assert resolve("search_fragment_count") == (0, "env")
    monkeypatch.setenv("REPRO_SEARCH_MAX_HITS", "0")  # below minimum
    assert resolve("search_max_hits") == (50, "default")
    with repro.engine(search_max_hits=5):
        assert resolve("search_max_hits") == (5, "context")


def test_max_hits_bounds_hits_through_the_chain():
    index = _tiny_index()
    with repro.engine(search_max_hits=3):
        result = index.search("")
    assert result.total == 7 and len(result.hits) == 3


# -- journal + rebuild ---------------------------------------------------------


def test_rebuild_is_byte_identical():
    index = _tiny_index()
    index.note_delete("/t/acme/obj-3")
    rebuilt = index.rebuild()
    assert rebuilt.canonical_bytes() == index.canonical_bytes()


def test_journal_verify_catches_tampering():
    index = _tiny_index()
    index.verify_journal()
    entry = index.journal.entries[2]
    index.journal.entries[2] = dataclasses.replace(
        entry, payload={**entry.payload, "size": 999_999})
    with pytest.raises(JournalError):
        index.verify_journal()


def test_delete_drops_document_and_postings():
    index = _tiny_index()
    index.note_delete("/t/acme/obj-0")
    assert index.search("path:/t/acme/obj-0").total == 0
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()


# -- percolator ----------------------------------------------------------------


def test_alert_fires_only_on_transition():
    perc = Percolator()
    perc.register(StandingQuery(name="t", query="tampered:true"))
    bad = {"tampered": True, "path": "/x"}
    assert len(perc.percolate("d1", bad, epoch=1, tick=1)) == 1
    # same state again: no re-fire
    assert perc.percolate("d1", bad, epoch=2, tick=2) == []
    # transition out re-arms...
    assert perc.percolate("d1", {"tampered": False}, epoch=3,
                          tick=3) == []
    # ...so a regression fires again
    assert len(perc.percolate("d1", bad, epoch=4, tick=4)) == 1
    assert len(perc.alerts) == 2


def test_tenant_confined_standing_query():
    perc = Percolator()
    perc.register(StandingQuery(name="t", query="tampered:true",
                                tenant="acme"))
    fired = perc.percolate(
        "d1", {"tampered": True, "tenant": "beta"}, epoch=1, tick=1)
    assert fired == []
    fired = perc.percolate(
        "d2", {"tampered": True, "tenant": "acme"}, epoch=1, tick=2)
    assert len(fired) == 1


def test_unregister_keeps_fired_alerts():
    index = EvidenceIndex()
    index.register_alert("t", "tampered:true")
    assert index.unregister_alert("t") is True
    assert index.unregister_alert("t") is False
    assert index.standing_queries() == []
    # both journaled: the rebuild reproduces the empty standing set
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()


def test_tamper_alert_json_round_trip():
    alert = TamperAlert(name="t", query="tampered:true", doc_id="d",
                        epoch=3, tick=9, member="m1", label="/x",
                        verdict="hash-mismatch")
    assert TamperAlert.from_json(alert.to_json()) == alert


# -- fleet integration ---------------------------------------------------------


def test_fleet_audit_exposes_typed_member_records():
    fleet = FleetStore.create(2, CONFIG)
    fleet.put("/a", b"data-a")
    fleet.seal("/a")
    report = fleet.audit()
    assert report.member_records
    record = report.member_records[0]
    assert isinstance(record, MemberVerdictRecord)
    # member-local: the label is NOT "m<i>:"-prefixed
    assert not record.report.label.startswith("m")
    assert record.report.intact
    # the merged reports still carry the prefixed labels
    assert all(r.label.startswith("m") for r in report.reports)


def test_fleet_hooks_feed_index_and_tamper_fires_once():
    fleet = FleetStore.create(2, CONFIG)
    index = EvidenceIndex()
    fleet.attach_indexer(index)
    index.register_alert("tamper", "tampered:true")

    fleet.put("/t/acme/a", b"object a", make_parents=True)
    fleet.seal("/t/acme/a")
    fleet.put("/t/acme/b", b"object b", make_parents=True)
    fleet.seal_many(["/t/acme/b"])
    fleet.audit()
    assert index.alerts == []
    assert index.search("tenant:acme sealed:true").total == 2

    path = "/t/acme/a"
    member = fleet.members[fleet.route(path)]
    mwb_data(member.device, member.receipts[path].line_start)
    report = fleet.audit()
    assert not report.clean
    assert [a.doc_id for a in index.alerts] == [f"obj:{path}"]
    fleet.audit()  # unchanged verdict: no re-fire
    assert len(index.alerts) == 1
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()
    index.verify_journal()


def test_export_evidence_text_is_searchable_and_highlighted():
    fleet = FleetStore.create(2, CONFIG)
    index = EvidenceIndex()
    fleet.attach_indexer(index)
    fleet.export_evidence(
        "acme--case7",
        {"note.txt": b"the forged entry sat in the middle"})
    result = index.search("forged", highlight=True, fragment_size=24,
                          fragment_count=1)
    assert result.total == 1
    hit = result.hits[0]
    assert hit.doc_id == "ev:acme--case7/note.txt"
    assert hit.fields["tenant"] == "acme"
    assert any("<em>forged</em>" in frag for frag in hit.highlights)


def test_reput_clears_stale_seal_fields():
    # sealed files are heated and immutable on the fleet, so a re-put
    # of the same doc id is driven through the index API directly
    index = EvidenceIndex()
    index.note_put("/a", size=2, member=0)
    receipt = SealReceipt(path="/a", line_start=7, n_blocks=1,
                          line_hash=b"\xab" * 32, timestamp=1)
    index.note_seal(receipt, member=0)
    assert index.search("sealed:true").total == 1
    index.note_put("/a", size=3, member=0)
    assert index.search("sealed:true").total == 0
    assert index.search("sealed:false").total == 1
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()
