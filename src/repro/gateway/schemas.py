"""Typed wire schemas: the gateway's JSON ⇄ dataclass round trips.

One encoder and one decoder per typed object the API façade speaks —
:class:`~repro.api.store.SealReceipt`,
:class:`~repro.api.store.VerifyReport`,
:class:`~repro.api.store.AuditReport`,
:class:`~repro.parallel.MemberFailure`, and friends — so a
:class:`~repro.gateway.client.GatewayClient` call returns the *same*
types, field for field, as the in-process ``FleetStore`` call it
proxies.  That identity is load-bearing: the byte-identity tests
compare gateway results against an in-process twin with ``==``, not
with bespoke comparison glue.

Conventions:

* binary fields (``line_hash``, hashes, object data) travel as the
  JSON-safe encodings below — hashes as lowercase hex, bulk data as
  base64;
* enums travel by value (``VerifyStatus`` → ``"intact"``);
* heterogeneous result slots (a degraded ``seal_many``) are tagged
  envelopes: ``{"kind": "receipt", ...}`` vs
  ``{"kind": "member_failure", ...}``.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any, Dict, List, Optional, Union

from ..api.store import (
    AuditReport,
    EvidenceExport,
    ObjectInfo,
    SealReceipt,
    VerifyReport,
    VerifyStatus,
)
from ..api.store import MemberVerdictRecord
from ..integrity.evidence import EvidenceItem
from ..parallel import MemberFailure
from ..search import SearchHit, SearchResult, StandingQuery, TamperAlert


class SchemaError(ValueError):
    """A wire payload failed validation (the gateway answers 400)."""


def b64encode(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64decode(text: Any, *, what: str = "data") -> bytes:
    if not isinstance(text, str):
        raise SchemaError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise SchemaError(f"{what} is not valid base64: {exc}") from exc


def _hex(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else data.hex()


def _unhex(text: Any, *, what: str) -> Optional[bytes]:
    if text is None:
        return None
    if not isinstance(text, str):
        raise SchemaError(f"{what} must be a hex string")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise SchemaError(f"{what} is not valid hex") from exc


def _require(wire: Any, *keys: str) -> None:
    if not isinstance(wire, dict):
        raise SchemaError(f"expected an object, got {type(wire).__name__}")
    missing = [key for key in keys if key not in wire]
    if missing:
        raise SchemaError(f"missing field(s): {', '.join(missing)}")


# -- ObjectInfo ---------------------------------------------------------------


def object_info_to_wire(info: ObjectInfo) -> Dict[str, Any]:
    return {"path": info.path, "ino": info.ino, "size": info.size,
            "sealed": info.sealed, "line_start": info.line_start,
            "mtime": info.mtime}


def object_info_from_wire(wire: Dict[str, Any]) -> ObjectInfo:
    _require(wire, "path", "ino", "size", "sealed", "line_start", "mtime")
    return ObjectInfo(path=wire["path"], ino=int(wire["ino"]),
                      size=int(wire["size"]), sealed=bool(wire["sealed"]),
                      line_start=wire["line_start"],
                      mtime=int(wire["mtime"]))


# -- SealReceipt --------------------------------------------------------------


def seal_receipt_to_wire(receipt: SealReceipt) -> Dict[str, Any]:
    return {"kind": "receipt", "path": receipt.path,
            "line_start": receipt.line_start,
            "n_blocks": receipt.n_blocks,
            "line_hash": _hex(receipt.line_hash),
            "timestamp": receipt.timestamp}


def seal_receipt_from_wire(wire: Dict[str, Any]) -> SealReceipt:
    _require(wire, "path", "line_start", "n_blocks", "line_hash",
             "timestamp")
    return SealReceipt(path=wire["path"],
                       line_start=int(wire["line_start"]),
                       n_blocks=int(wire["n_blocks"]),
                       line_hash=_unhex(wire["line_hash"],
                                        what="line_hash"),
                       timestamp=int(wire["timestamp"]))


# -- MemberFailure ------------------------------------------------------------


def member_failure_to_wire(failure: MemberFailure) -> Dict[str, Any]:
    return {"kind": "member_failure", "index": failure.index,
            "error_type": failure.error_type,
            "message": failure.message,
            "hosts_tried": list(failure.hosts_tried),
            "attempts": failure.attempts,
            "timed_out": failure.timed_out}


def member_failure_from_wire(wire: Dict[str, Any]) -> MemberFailure:
    _require(wire, "index", "error_type", "message", "hosts_tried",
             "attempts")
    return MemberFailure(index=int(wire["index"]),
                         error_type=wire["error_type"],
                         message=wire["message"],
                         hosts_tried=tuple(wire["hosts_tried"]),
                         attempts=int(wire["attempts"]),
                         timed_out=bool(wire.get("timed_out", False)))


def result_slot_to_wire(slot: Union[SealReceipt, MemberFailure]
                        ) -> Dict[str, Any]:
    """One entry of a possibly degraded receipt list."""
    if isinstance(slot, MemberFailure):
        return member_failure_to_wire(slot)
    return seal_receipt_to_wire(slot)


def result_slot_from_wire(wire: Dict[str, Any]
                          ) -> Union[SealReceipt, MemberFailure]:
    _require(wire, "kind")
    if wire["kind"] == "member_failure":
        return member_failure_from_wire(wire)
    if wire["kind"] == "receipt":
        return seal_receipt_from_wire(wire)
    raise SchemaError(f"unknown result slot kind {wire['kind']!r}")


# -- VerifyReport -------------------------------------------------------------


def verify_report_to_wire(report: VerifyReport) -> Dict[str, Any]:
    return {"status": report.status.value,
            "line_start": report.line_start,
            "tamper_evident": report.tamper_evident,
            "label": report.label,
            "stored_hash": _hex(report.stored_hash),
            "computed_hash": _hex(report.computed_hash),
            "tampered_cells": list(report.tampered_cells)}


def verify_report_from_wire(wire: Dict[str, Any]) -> VerifyReport:
    _require(wire, "status", "line_start", "tamper_evident")
    try:
        status = VerifyStatus(wire["status"])
    except ValueError:
        raise SchemaError(
            f"unknown verify status {wire['status']!r}") from None
    return VerifyReport(
        status=status, line_start=int(wire["line_start"]),
        tamper_evident=bool(wire["tamper_evident"]),
        label=wire.get("label"),
        stored_hash=_unhex(wire.get("stored_hash"), what="stored_hash"),
        computed_hash=_unhex(wire.get("computed_hash"),
                             what="computed_hash"),
        tampered_cells=tuple(wire.get("tampered_cells", ())))


# -- AuditReport --------------------------------------------------------------


def audit_report_to_wire(report: AuditReport) -> Dict[str, Any]:
    return {"reports": [verify_report_to_wire(r) for r in report.reports],
            "fs_errors": list(report.fs_errors),
            "fs_warnings": list(report.fs_warnings),
            "device_seconds": report.device_seconds,
            "deep": report.deep,
            "member_records": [
                {"member": record.member,
                 "report": verify_report_to_wire(record.report)}
                for record in report.member_records],
            # derived, for humans reading the raw JSON; the decoder
            # recomputes them from the reports
            "clean": report.clean,
            "tampered": [verify_report_to_wire(r)
                         for r in report.tampered]}


def audit_report_from_wire(wire: Dict[str, Any]) -> AuditReport:
    _require(wire, "reports", "fs_errors", "fs_warnings",
             "device_seconds", "deep")
    member_records = []
    for entry in wire.get("member_records", ()):
        _require(entry, "member", "report")
        member_records.append(MemberVerdictRecord(
            member=int(entry["member"]),
            report=verify_report_from_wire(entry["report"])))
    return AuditReport(
        reports=[verify_report_from_wire(r) for r in wire["reports"]],
        fs_errors=list(wire["fs_errors"]),
        fs_warnings=list(wire["fs_warnings"]),
        device_seconds=float(wire["device_seconds"]),
        deep=bool(wire["deep"]),
        member_records=member_records)


# -- Evidence export ----------------------------------------------------------


def _evidence_item_to_wire(item: EvidenceItem) -> Dict[str, Any]:
    return {"name": item.name, "size": item.size,
            "line_start": item.line_start,
            "line_hash": _hex(item.line_hash)}


def _evidence_item_from_wire(wire: Dict[str, Any]) -> EvidenceItem:
    _require(wire, "name", "size", "line_start", "line_hash")
    return EvidenceItem(name=wire["name"], size=int(wire["size"]),
                        line_start=int(wire["line_start"]),
                        line_hash=_unhex(wire["line_hash"],
                                         what="line_hash"))


def evidence_export_to_wire(export: EvidenceExport) -> Dict[str, Any]:
    return {"case": export.case, "directory": export.directory,
            "items": [_evidence_item_to_wire(i) for i in export.items],
            "manifest": _evidence_item_to_wire(export.manifest),
            "intact": export.intact,
            "reports": [verify_report_to_wire(r)
                        for r in export.reports]}


def evidence_export_from_wire(wire: Dict[str, Any]) -> EvidenceExport:
    _require(wire, "case", "directory", "items", "manifest", "intact",
             "reports")
    return EvidenceExport(
        case=wire["case"], directory=wire["directory"],
        items=tuple(_evidence_item_from_wire(i) for i in wire["items"]),
        manifest=_evidence_item_from_wire(wire["manifest"]),
        intact=bool(wire["intact"]),
        reports=tuple(verify_report_from_wire(r)
                      for r in wire["reports"]))


# -- History ------------------------------------------------------------------


def history_to_wire(records: List) -> List[Dict[str, Any]]:
    """Instruction-log records (``(tick, bytes)`` pairs) to wire."""
    return [{"tick": tick, "record": b64encode(record)}
            for tick, record in records]


def history_from_wire(wire: List) -> List:
    out = []
    for entry in wire:
        _require(entry, "tick", "record")
        out.append((int(entry["tick"]),
                    b64decode(entry["record"], what="record")))
    return out


# -- Evidence search ----------------------------------------------------------


def search_hit_to_wire(hit: SearchHit) -> Dict[str, Any]:
    return {"doc_id": hit.doc_id, "score": hit.score,
            "fields": dict(hit.fields),
            "highlights": list(hit.highlights)}


def search_hit_from_wire(wire: Dict[str, Any]) -> SearchHit:
    _require(wire, "doc_id", "score", "fields")
    if not isinstance(wire["fields"], dict):
        raise SchemaError("fields must be an object")
    return SearchHit(doc_id=wire["doc_id"], score=int(wire["score"]),
                     fields=dict(wire["fields"]),
                     highlights=tuple(wire.get("highlights", ())))


def search_result_to_wire(result: SearchResult) -> Dict[str, Any]:
    return {"query": result.query, "total": result.total,
            "hits": [search_hit_to_wire(h) for h in result.hits],
            "facets": {facet: [[value, count]
                               for value, count in pairs]
                       for facet, pairs in result.facets.items()}}


def search_result_from_wire(wire: Dict[str, Any]) -> SearchResult:
    _require(wire, "query", "total", "hits", "facets")
    if not isinstance(wire["facets"], dict):
        raise SchemaError("facets must be an object")
    facets = {}
    for facet, pairs in wire["facets"].items():
        facets[facet] = tuple((str(value), int(count))
                              for value, count in pairs)
    return SearchResult(
        query=wire["query"], total=int(wire["total"]),
        hits=tuple(search_hit_from_wire(h) for h in wire["hits"]),
        facets=facets)


def tamper_alert_to_wire(alert: TamperAlert) -> Dict[str, Any]:
    return alert.to_json()


def tamper_alert_from_wire(wire: Dict[str, Any]) -> TamperAlert:
    _require(wire, "name", "query", "doc_id", "epoch", "tick")
    try:
        return TamperAlert.from_json(wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad tamper alert: {exc}") from exc


def standing_query_to_wire(standing: StandingQuery) -> Dict[str, Any]:
    return {"name": standing.name, "query": standing.query,
            "tenant": standing.tenant}


def standing_query_from_wire(wire: Dict[str, Any]) -> StandingQuery:
    _require(wire, "name", "query")
    tenant = wire.get("tenant")
    return StandingQuery(name=str(wire["name"]),
                         query=str(wire["query"]),
                         tenant=None if tenant is None else str(tenant))
