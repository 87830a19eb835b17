"""The wrapper table: which callables stand for which layer, and how
their spans and counters become the per-layer metrics.

Layers are named after the repository's packages.  A span's layer is
the longest :data:`LAYERS` entry its name starts with, so
``device.ecc.decode`` belongs to ``device.ecc`` and ``device.self``
excludes it (an ECC span is a child of the device span around it).

Names a module imports by value (``from ..crypto.crc import crc32``)
are patched where they are used, not where they are defined: the
defining module's attribute is never looked up again after import.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from tracer import Target

LAYERS = ("gateway", "api.fleet", "api.store", "parallel", "integrity",
          "fs", "device", "device.ecc", "crypto", "medium", "search")

#: Simulated-device cost categories ``CostAccount.by_category`` uses.
SIM_CATEGORIES = ("seek", "mrb", "mwb", "ewb", "erb")


def _add(counts: Dict[Any, float], key: Any, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


# -- hooks: (counts, op, args, kwargs, result); args[0] is self ------------


def _handle_bytes(counts, _op, args, _kwargs, result) -> None:
    # GatewayApp.handle(self, method, raw_path, headers, body) →
    # (status, headers, body dict); the handler sends json.dumps(dict)
    _add(counts, "gateway.body_bytes", len(args[4]) + len(args[2])
         + len(json.dumps(result[2])))


def _count(key: str, how_many, by_op: bool = False):
    """A hook adding ``how_many(args)`` to ``key``, or, with
    ``by_op``, to ``(key, op)`` for the fleet verb being served."""
    def hook(counts, op, args, _kwargs, _result) -> None:
        _add(counts, (key, op) if by_op else key, how_many(args))
    return hook


def _ecc_bits(counts, _op, args, _kwargs, _result) -> None:
    # encode takes bytes (72 code bits per 8), decode takes code bits
    data = args[0]
    _add(counts, "device.ecc.bits",
         len(data) * 9 if isinstance(data, (bytes, bytearray))
         else len(data))


def _fleet_pass(counts, _op, _args, _kwargs, outcome) -> None:
    # FleetExecutor.run → ExecutionOutcome (per-host wire byte dicts)
    _add(counts, "parallel.passes", 1)
    _add(counts, "parallel.bytes_out", sum(outcome.bytes_out.values()))
    _add(counts, "parallel.bytes_back", sum(outcome.bytes_back.values()))
    _add(counts, "parallel.retries", sum(outcome.retries.values()))


def _targets() -> List[Target]:
    out: List[Target] = []

    def span(name: str, owner: str, *attrs: str, **kw) -> None:
        out.extend(Target(name, f"{owner}.{attr}", **kw) for attr in attrs)

    client = "repro.gateway.client.GatewayClient"
    span("gateway.client", client, "put", "get", "info", "seal",
         "verify", "search", "audit")
    span("gateway.handle", "repro.gateway.server.GatewayApp", "handle",
         hook=_handle_bytes)

    fleet = "repro.api.fleet.FleetStore"
    for attr, op in (("put", "put"), ("get", "get"), ("info", "info"),
                     ("seal", "seal"), ("verify", "verify"),
                     ("audit", "audit")):
        span("api.fleet", fleet, attr, op=op,
             hook=_count("ops", lambda a: 1, by_op=True))
    # a batch counts once per object, so reads-per-seal compares
    span("api.fleet", fleet, "seal_many", op="seal",
         hook=_count("ops", lambda a: len(a[1]), by_op=True))
    span("api.store", "repro.api.store.TamperEvidentStore", "put", "get",
         "info", "seal", "seal_many", "verify", "audit")

    # the two gate methods are private, but they are where an audit
    # waits for tenants and tenants wait for an audit: the public
    # exclusive()/shared() are generators that block in __enter__
    span("parallel.lock_wait", "repro.parallel.locks.MemberLockSet",
         "acquire_ascending", "acquire_member", "_acquire_gate_shared",
         "_acquire_gate_exclusive")
    for executor in ("executor.SerialExecutor", "executor.ThreadExecutor",
                     "executor.ProcessExecutor", "remote.RpcExecutor"):
        span("parallel.run", f"repro.parallel.{executor}", "run",
             hook=_fleet_pass)

    span("integrity", "repro.integrity.selfsec.AuditLog", "log", "rotate")
    span("fs", "repro.fs.lfs.SeroFS", "create", "write", "read", "stat",
         "mkdir", "heat_file", "heat_files", "verify_file")

    device = "repro.device.sero.SERODevice"
    span("device.read_block", device, "read_block",
         hook=_count("read", lambda a: 1, by_op=True))
    span("device.read_block_run", device, "read_block_run",
         hook=_count("read_run", lambda a: a[2], by_op=True))
    span("device.write_block", device, "write_block",
         hook=_count("write", lambda a: 1, by_op=True))
    span("device.write_block_run", device, "write_block_run",
         hook=_count("write_run", lambda a: len(a[2]), by_op=True))
    span("device.heat", device, "heat_line", "heat_lines")
    span("device.verify", device, "verify_line",
         hook=_count("device.lines_verified", lambda a: 1))
    span("device.verify", device, "verify_lines",
         hook=_count("device.lines_verified", lambda a: len(a[1])))

    span("device.ecc.encode", "repro.device.ecc", "encode", hook=_ecc_bits)
    span("device.ecc.decode", "repro.device.ecc", "decode", hook=_ecc_bits)

    span("crypto.crc", "repro.device.sector", "crc32", "crc16_ccitt")
    span("crypto.crc", "repro.fs.inode", "crc32")
    span("crypto.crc", "repro.fs.layout", "crc32")
    span("crypto.sha256", "repro.device.sero", "line_hash",
         "line_hash_many")
    span("crypto.manchester", "repro.device.sero", "encode_bytes")

    medium = "repro.medium.medium.PatternedMedium"
    span("medium.span", medium, "read_mag_span", "erb_span", "heat_span",
         hook=_count("medium.dots", lambda a: a[2] - a[1]))
    span("medium.span", medium, "write_mag_span",
         hook=_count("medium.dots", lambda a: len(a[2])))
    span("medium.span", medium, "erb_at",
         hook=_count("medium.dots", lambda a: len(a[1])))

    index = "repro.search.index.EvidenceIndex"
    span("search.ingest", index, "note_put", "note_seal", "note_audit",
         "note_delete", "note_export")
    span("search.query", index, "search")
    return out


TARGETS = _targets()


def layer_of(span: str) -> Optional[str]:
    best = None
    for layer in LAYERS:
        if (span == layer or span.startswith(layer + ".")) and \
                (best is None or len(layer) > len(best)):
            best = layer
    return best


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def layer_metrics(spans: Dict[str, List[float]], counts: Dict[Any, float],
                  *, ops: int, op_wall: float,
                  user_bytes: int) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced measured phase.

    ``ops`` is the number of measured client operations, and every
    ``*_per_op`` value divides by it, so a layer's ``self_ms_per_op``
    is its slice of an average operation.  ``op_wall`` is the seconds
    the clients' own clocks read around those operations, and
    ``user_bytes`` the payload they put.  A value whose span never
    fired or whose name did not resolve is None.
    """
    out: Dict[str, Optional[float]] = {}
    per_layer: Dict[str, List[float]] = {layer: [0, 0.0] for layer in LAYERS}
    for name, (calls, _total, self_s) in spans.items():
        layer = layer_of(name)
        if layer is not None:
            per_layer[layer][0] += calls
            per_layer[layer][1] += self_s
    # A handle span runs on the server's thread while the client span
    # that caused it waits on the client's: the stacks are per thread,
    # so the two never nest and the client's self time still holds the
    # handle's whole interval.  Take it out, as for a child span.
    client, handle = spans.get("gateway.client"), spans.get("gateway.handle")
    remote_s = handle[1] if client and handle else 0.0
    per_layer["gateway"][1] -= remote_s
    for layer, (calls, self_s) in per_layer.items():
        out[f"{layer}.self_ms_per_op"] = _ratio(self_s * 1e3, ops)
        out[f"{layer}.calls_per_op"] = _ratio(calls, ops)

    def span_ms_per_op(name: str) -> Optional[float]:
        agg = spans.get(name)
        return _ratio(agg[1] * 1e3, ops) if agg else None

    def calls_per_op(name: str) -> Optional[float]:
        agg = spans.get(name)
        return _ratio(agg[0], ops) if agg else None

    # what a request costs outside GatewayApp.handle: client encode,
    # loopback HTTP both ways, the server's parse and respond
    out["gateway.http_overhead_ms"] = _ratio(
        (client[1] - handle[1]) * 1e3, client[0]) \
        if client and handle else None
    out["gateway.body_bytes_per_user_byte"] = _ratio(
        counts.get("gateway.body_bytes", 0), user_bytes) \
        if handle else None

    out["parallel.lock_wait_ms_per_op"] = span_ms_per_op("parallel.lock_wait")
    passes = counts.get("parallel.passes", 0)
    run = spans.get("parallel.run")
    out["parallel.run_self_ms_per_pass"] = _ratio(
        run[2] * 1e3, passes) if run else None
    bytes_out = counts.get("parallel.bytes_out", 0)
    bytes_back = counts.get("parallel.bytes_back", 0)
    out["parallel.bytes_out_per_pass"] = _ratio(bytes_out, passes)
    out["parallel.bytes_back_per_pass"] = _ratio(bytes_back, passes)
    out["parallel.wire_mb_per_pass"] = _ratio(
        (bytes_out + bytes_back) / 1e6, passes)
    out["parallel.retries"] = counts.get("parallel.retries", 0) \
        if run else None

    def blocks(kinds, op: str) -> float:
        return sum(counts.get((kind, op), 0) for kind in kinds)

    reads, writes = ("read", "read_run"), ("write", "write_run")
    out["fs.block_reads_per_get"] = _ratio(
        blocks(reads, "get"), counts.get(("ops", "get"), 0))
    out["fs.block_writes_per_put"] = _ratio(
        blocks(writes, "put"), counts.get(("ops", "put"), 0))
    out["fs.block_reads_per_seal"] = _ratio(
        blocks(reads, "seal"), counts.get(("ops", "seal"), 0))
    every = sum(value for key, value in counts.items()
                if isinstance(key, tuple)
                and key[0] in reads + writes)
    by_run = sum(value for key, value in counts.items()
                 if isinstance(key, tuple)
                 and key[0] in ("read_run", "write_run"))
    out["fs.run_share"] = _ratio(by_run, every)

    for name in ("read_block", "write_block", "read_block_run",
                 "write_block_run", "heat", "verify"):
        out[f"device.{name}.calls_per_op"] = calls_per_op(f"device.{name}")
    verify = spans.get("device.verify")
    out["device.lines_per_verify_call"] = _ratio(
        counts.get("device.lines_verified", 0), verify[0]) \
        if verify else None

    out["device.ecc.encode_ms_per_op"] = span_ms_per_op("device.ecc.encode")
    out["device.ecc.decode_ms_per_op"] = span_ms_per_op("device.ecc.decode")
    ecc_calls = sum(spans[name][0] for name in
                    ("device.ecc.encode", "device.ecc.decode")
                    if name in spans)
    out["device.ecc.bits_per_call"] = _ratio(
        counts.get("device.ecc.bits", 0), ecc_calls)

    for name in ("crc", "sha256", "manchester"):
        out[f"crypto.{name}_ms_per_op"] = span_ms_per_op(f"crypto.{name}")

    medium = spans.get("medium.span")
    out["medium.span_calls_per_op"] = calls_per_op("medium.span")
    out["medium.dots_per_span"] = _ratio(
        counts.get("medium.dots", 0), medium[0]) if medium else None

    out["search.ingest_ms_per_op"] = span_ms_per_op("search.ingest")
    out["search.query_ms_per_op"] = span_ms_per_op("search.query")

    # the self times against the clients' own clocks: above 1 a span is
    # counted twice, below 1 an operation runs outside every span
    self_sum = sum(agg[2] for agg in spans.values()) - remote_s
    out["harness.self_over_op_wall"] = _ratio(self_sum, op_wall)
    return out
