"""Property tests: the incremental index is never a second source of
truth.

Hypothesis drives random put / seal / delete / audit traces against a
small fleet with an attached :class:`~repro.search.EvidenceIndex` and
checks, after every trace:

* ``rebuild()`` — a cold replay of the hash-chained journal — is
  **byte-identical** to the incrementally maintained index;
* the journal hash chain verifies;
* the indexed search path agrees exactly with the naive full-scan
  oracle for a spread of queries;
* a clean trace fires zero tamper alerts, and tampering with exactly
  one sealed object fires exactly one;
* the postings folded field by field equal the postings a fresh index
  builds from the same documents, after every event of a trace.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EvidenceExport,
    FleetStore,
    MemberFailure,
    MemberVerdictRecord,
    SealReceipt,
    StoreConfig,
    VerifyReport,
)
from repro.device.sero import VerifyStatus
from repro.integrity.evidence import EvidenceItem
from repro.search import EvidenceIndex, scan_search
from repro.security.attacks import mwb_data

CONFIG = StoreConfig(total_blocks=224)

OPS = st.lists(
    st.sampled_from(["put", "put", "seal", "delete", "audit"]),
    min_size=1, max_size=24)

ORACLE_QUERIES = ("", "sealed:true", "sealed:false", "obj",
                  "verdict:intact", "member:m0 p00")


def _run_trace(ops):
    """Apply ``ops`` to a fresh indexed fleet; return (fleet, index,
    sealed paths)."""
    fleet = FleetStore.create(2, CONFIG)
    index = EvidenceIndex()
    fleet.attach_indexer(index)
    index.register_alert("tamper", "tampered:true")

    unsealed = []
    sealed = []
    counter = 0
    for op in ops:
        if op == "put":
            path = f"/p{counter:03d}"
            counter += 1
            fleet.put(path, b"payload-" + path.encode())
            unsealed.append(path)
        elif op == "seal" and unsealed:
            path = unsealed.pop(0)
            fleet.seal(path)
            sealed.append(path)
        elif op == "delete" and unsealed:
            # sealed objects are heated and immutable; only unsealed
            # ones can leave
            fleet.delete(unsealed.pop())
        elif op == "audit":
            fleet.audit()
    return fleet, index, sealed


def _assert_invariants(index):
    index.verify_journal()
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()
    for q in ORACLE_QUERIES:
        indexed = index.search(q, facets=("member", "verdict"))
        scanned = scan_search(index.documents, q,
                              facets=("member", "verdict"))
        assert indexed == scanned, q


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_incremental_index_equals_rebuild(ops):
    fleet, index, _sealed = _run_trace(ops)
    fleet.audit()
    _assert_invariants(index)
    assert index.alerts == []  # clean trace: no standing query fires


@settings(max_examples=25, deadline=None)
@given(ops=OPS, victim=st.integers(min_value=0, max_value=1000))
def test_single_tamper_fires_exactly_one_alert(ops, victim):
    fleet, index, sealed = _run_trace(ops)
    if not sealed:
        return  # nothing sealed: nothing to tamper with
    path = sealed[victim % len(sealed)]
    member = fleet.members[fleet.route(path)]
    mwb_data(member.device, member.receipts[path].line_start)

    report = fleet.audit()
    assert not report.clean
    assert [a.doc_id for a in index.alerts] == [f"obj:{path}"]
    assert index.alerts[0].verdict in ("hash-mismatch", "cell-tampered")

    fleet.audit()  # unchanged verdict: the alert must not re-fire
    assert len(index.alerts) == 1
    _assert_invariants(index)


# -- the fold, event by event ---------------------------------------------

PATHS = ("/t/acme/a", "/t/acme/b", "/t/globex/a", "/plain/c")
TAMPERED = (VerifyStatus.HASH_MISMATCH, VerifyStatus.CELL_TAMPERED)

EVENTS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, len(PATHS) - 1),
              st.sampled_from([0, 1, 400, 2048])),
    st.tuples(st.just("seal"), st.integers(0, len(PATHS) - 1),
              st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, len(PATHS) - 1)),
    st.tuples(st.just("export"), st.sampled_from(["acme--c1", "c2"]),
              st.lists(st.tuples(st.sampled_from(["x.bin", "y.txt"]),
                                 st.sampled_from([None, *VerifyStatus]),
                                 st.sampled_from(["", "Alpha beta",
                                                  "beta 42"])),
                       max_size=2)),
    st.tuples(st.just("audit"),
              st.lists(st.sampled_from([None, *VerifyStatus]),
                       min_size=len(PATHS), max_size=len(PATHS)),
              st.lists(st.integers(0, 1), max_size=2, unique=True)),
), min_size=1, max_size=30)


def _report(status, line_start, label=None):
    return VerifyReport(status=status, line_start=line_start,
                        tamper_evident=status in TAMPERED, label=label)


def _apply(index, event, seals):
    """Feed one event to ``index`` through its ``note_*`` hooks, as a
    fleet would; ``seals`` maps a sealed path to its (member, line)."""
    kind = event[0]
    if kind == "put":
        path = PATHS[event[1]]
        seals.pop(path, None)  # an overwrite un-seals
        index.note_put(path, size=event[2], member=event[1] % 2)
    elif kind == "seal":
        path = PATHS[event[1]]
        line_start = 8 * event[1] + event[2]
        seals[path] = (event[1] % 2, line_start)
        index.note_seal(SealReceipt(path=path, line_start=line_start,
                                    n_blocks=8, line_hash=bytes(32),
                                    timestamp=event[2]),
                        member=event[1] % 2)
    elif kind == "delete":
        seals.pop(PATHS[event[1]], None)
        index.note_delete(PATHS[event[1]])
    elif kind == "export":
        case, exhibits = event[1], event[2]
        items = tuple(EvidenceItem(name=name, size=1, line_start=0,
                                   line_hash=bytes(32))
                      for name, _status, _text in exhibits)
        reports = tuple(_report(status, 0, f"ev/{name}")
                        for name, status, _text in exhibits
                        if status is not None)
        index.note_export(
            EvidenceExport(case=case, directory="ev", items=items,
                           manifest=items[0] if items else None,
                           intact=all(r.intact for r in reports),
                           reports=reports),
            member=0,
            exhibits={name: text.encode()
                      for name, _status, text in exhibits})
    else:
        # one verdict per path: sealed ones land on their object
        # document, the rest on a line document of their own
        statuses, failed = event[1], event[2]
        records = []
        for i, status in enumerate(statuses):
            if status is None:
                continue
            member, line_start = seals.get(PATHS[i], (i % 2, 100 + i))
            records.append(MemberVerdictRecord(
                member=member,
                report=_report(status, line_start, f"line:{line_start}")))
        index.note_audit(
            SimpleNamespace(member_records=records,
                            clean=not any(r.report.tamper_evident
                                          for r in records)),
            failures=[MemberFailure(index=m, error_type="RpcTimeoutError",
                                    message=f"worker {m} timed out",
                                    timed_out=True) for m in failed])


def _fresh_postings(index):
    """The postings an empty index builds from ``index``'s documents."""
    fresh = EvidenceIndex()
    for doc_id, fields in index.documents.items():
        fresh._set_doc(doc_id, dict(fields))
    return fresh


@settings(max_examples=40, deadline=None)
@given(events=EVENTS)
def test_field_fold_equals_a_fresh_build(events):
    """Each event moves only the postings of the fields it changed;
    after every one the postings equal a from-scratch build of the
    same documents, searches agree with the scan oracle and the
    journal replays to the same bytes."""
    index = EvidenceIndex()
    index.register_alert("tamper", "tampered:true")
    seals = {}
    for event in events:
        _apply(index, event, seals)
        fresh = _fresh_postings(index)
        assert index._value_postings == fresh._value_postings
        assert index._term_postings == fresh._term_postings
        assert index._doc_terms == fresh._doc_terms
        assert index._doc_values == fresh._doc_values
        for q in ORACLE_QUERIES + ("tampered:true", "beta", "m1"):
            assert index.search(q, facets=("verdict",)) == \
                scan_search(index.documents, q, facets=("verdict",)), q
    assert index.rebuild().canonical_bytes() == index.canonical_bytes()


def test_fold_compares_normalised_values():
    """``True == 1`` in Python, but the two index as ``true`` and
    ``1``: the fold must move the postings when one replaces the
    other."""
    index = EvidenceIndex()
    index._set_doc("d", {"type": "object", "size": 1})
    index._set_doc("d", {"type": "object", "size": True})
    assert index._value_postings.get(("size", "1")) is None
    assert index._value_postings[("size", "true")] == {"d"}
    assert "1" not in index._term_postings
    assert index._doc_terms["d"] == {"object": 1, "true": 1}
    index._drop_doc("d")
    assert (index._value_postings, index._term_postings,
            index._doc_terms, index._doc_values, index.documents) == \
        ({}, {}, {}, {}, {})
