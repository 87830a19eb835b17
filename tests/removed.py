"""The removal ledger: one row per public or once-public name that is gone.

A row is ``(name, version, replacement, owner)``:

* ``owner=None`` — the name is distinctive, and it must not appear as a
  whole word anywhere in ``src/**/*.py`` (identifiers, strings and
  docstrings alike).  A name ending in ``*`` is a prefix.  Rows of
  version ``9.0`` also scan :data:`BENCH_PATHS`, where the retired
  bench harness used to be named;
* ``owner="dotted.path"`` (or a tuple of them) — the name is generic,
  and it must not be an attribute, a dataclass field, a parameter or a
  submodule of each owner.

``tests/test_api_surface.py`` checks every row, and checks that API.md
names every row, so a removal is written here once and documented
there once.  A name that comes back, under any owner, is a new
decision: delete its row in the same change.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union


class Removed(NamedTuple):
    name: str
    version: str
    replacement: str
    owner: Union[None, str, Tuple[str, ...]] = None


#: Paths beside ``src/`` that the 9.0 rows scan (relative to the repo
#: root; a directory is scanned recursively).
BENCH_PATHS = ("pyproject.toml", ".github", ".claude", "PERFORMANCE.md",
               "tests")

_ALIASES = "policy.resolve(name, explicit=None)"
_ROW_ENV = 'KNOBS["<knob>"].env_var, or the REPRO_* literal'

REMOVED: Tuple[Removed, ...] = (
    # 3.0: one rpc transport, one locking discipline
    Removed("sessions", "3.0", "session dispatch always",
            "repro.parallel.remote.RpcExecutor"),
    Removed("pipeline", "3.0", "always pipelined",
            "repro.parallel.remote.RpcExecutor"),
    Removed("fleet_sessions", "3.0", "session dispatch always"),
    Removed("resolve_fleet_sessions", "3.0", "session dispatch always"),
    Removed("FLEET_SESSIONS_ENV_VAR", "3.0", "session dispatch always"),
    Removed("REPRO_FLEET_SESSIONS", "3.0", "nothing reads it"),
    Removed("unpin", "3.0", "pins age out of the worker's LRU"),
    Removed("lock_mode", "3.0", "shard locks always"),
    Removed("LOCK_MODES", "3.0", "shard locks always"),
    Removed("GATEWAY_LOCK_MODE_ENV_VAR", "3.0", "shard locks always"),
    Removed("REPRO_GATEWAY_LOCK_MODE", "3.0", "nothing reads it"),
    Removed("vectorize", "3.0", "device.config.span_engine", "repro"),
    Removed("span_engine_default", "3.0", "device.config.span_engine"),
    Removed("_fresh_fs", "3.0", "_fresh_store()"),
    # 4.0: one fleet façade
    Removed("fleet", "4.0", "repro.api.FleetStore", "repro.workloads"),
    Removed("FleetScheduler", "4.0", "FleetStore"),
    Removed("FleetReport", "4.0", "fleet.last_op and the typed reports"),
    Removed("DeviceReport", "4.0", "AuditReport.member_records"),
    Removed("coerce_member", "4.0", "TamperEvidentStore.attach(device)"),
    Removed("format_fleet", "4.0", "FleetStore.format_devices()"),
    Removed("seal_fleet", "4.0", "put + FleetStore.seal_many(paths)"),
    Removed("audit_fleet", "4.0", "FleetStore.audit()"),
    Removed("fsck_fleet", "4.0", "FleetStore.audit(deep=True)"),
    # 5.0: one SHA-256, one seal path
    Removed("sha256_backend", "5.0", "hashlib"),
    Removed("sha256", "5.0", "hashlib",
            ("repro.api.policy.ExecutionPolicy", "repro.api.policy.engine")),
    Removed("kwarg", "5.0", "the row's name is the keyword",
            "repro.api.policy.Knob"),
    Removed("resolve_sha256_backend", "5.0", "hashlib"),
    Removed("SHA256_BACKENDS", "5.0", "hashlib"),
    Removed("SHA256_ENV_VAR", "5.0", "hashlib"),
    Removed("REPRO_SHA256_BACKEND", "5.0", "nothing reads it"),
    Removed("set_backend", "5.0", "hashlib"),
    Removed("get_backend", "5.0", "hashlib"),
    Removed("get_pinned_backend", "5.0", "hashlib"),
    Removed("sha256_many", "5.0", "sha256_iter"),
    Removed("line_hash_many", "5.0", "line_hash"),
    Removed("heat_lines", "5.0", "SERODevice.heat_line"),
    Removed("heat_files", "5.0", "SeroFS.heat_file"),
    Removed("_staged_blocks", "5.0", "seal_many is the seal loop"),
    # 6.0: one CRC
    Removed("USE_VECTORIZED", "6.0", "zlib.crc32 / binascii.crc_hqx"),
    Removed("_use_vectorized", "6.0", "zlib.crc32 / binascii.crc_hqx"),
    Removed("_CRC32_POS_TABLES", "6.0", "zlib.crc32"),
    Removed("_crc32_pos_table", "6.0", "zlib.crc32"),
    Removed("_CRC32_T7", "6.0", "zlib.crc32"),
    Removed("_CRC16_T1", "6.0", "binascii.crc_hqx"),
    # 7.0: one engine
    Removed("engine", "7.0", "DeviceConfig(span_engine=False)",
            ("repro.api.policy.ExecutionPolicy",
             "repro.api.store.StoreConfig",
             "repro.api.store.TamperEvidentStore")),
    Removed("vectorized", "7.0", "DeviceConfig(span_engine=False)",
            "repro.api.policy.ExecutionPolicy"),
    Removed("ENGINE_ENV_VAR", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("REPRO_SPAN_ENGINE", "7.0", "nothing reads it"),
    Removed("EngineSpec", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("register_engine", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("unregister_engine", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("available_engines", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("get_engine", "7.0", "DeviceConfig(span_engine=False)"),
    Removed("resolve_engine", "7.0", "device.config.span_engine"),
    Removed("resolve_vectorized", "7.0", "device.config.span_engine"),
    Removed("VECTORIZED_ENGINE", "7.0", "DeviceConfig()"),
    Removed("SCALAR_ENGINE", "7.0", "DeviceConfig(span_engine=False)"),
    # 8.0: one dispatch per boundary
    Removed("ThreadExecutor", "8.0", "SerialExecutor or RpcExecutor"),
    Removed("ProcessExecutor", "8.0", "RpcExecutor over local workers"),
    Removed("ExecutorSpec", "8.0", "a FleetExecutor instance"),
    Removed("register_executor", "8.0", "a FleetExecutor instance"),
    Removed("unregister_executor", "8.0", "a FleetExecutor instance"),
    Removed("available_executors", "8.0", "'serial' and 'rpc'"),
    Removed("get_executor_spec", "8.0", "a FleetExecutor instance"),
    Removed("make_executor", "8.0", "resolve_fleet_executor"),
    Removed("max_workers", "8.0", "one thread per worker host"),
    Removed("resolve_max_workers", "8.0", "one thread per worker host"),
    Removed("FLEET_WORKERS_ENV_VAR", "8.0", "one thread per worker host"),
    Removed("REPRO_FLEET_WORKERS", "8.0", "nothing reads it"),
    # 9.0: one test harness, one performance gate
    Removed("batch_pointer_reads", "9.0", "DeviceConfig(span_engine=False)"),
    Removed("bench", "9.0", "tests/test_paper.py::test_artifact[<exp_id>]",
            "repro.analysis.Experiment"),
    Removed("benchmarks/bench_*", "9.0", "python3 -m benchmarks.stack"),
    Removed("pytest-benchmark", "9.0", "python3 -m benchmarks.stack"),
    Removed("BENCH_span_engine", "9.0", "tests/test_span_engine.py"),
    Removed("BENCH_batched_engine", "9.0", "tests/test_batched_engine.py"),
    Removed("BENCH_api_store", "9.0", "tests/test_api_store.py"),
    Removed("BENCH_deep_scan", "9.0", "tests/test_fs_fsck.py"),
    Removed("BENCH_gateway", "9.0", "tests/test_gateway.py"),
    Removed("BENCH_search", "9.0", "tests/test_search_properties.py"),
    # 10.0: one pass contract
    Removed("FleetOpStats", "10.0", "repro.parallel.ExecutionOutcome"),
    Removed("WorkerWall", "10.0", "fleet.last_op.wall_seconds"),
    Removed("worker_walls", "10.0", "fleet.last_op.wall_seconds"),
    Removed("workers", "10.0", "session_for(member).pins",
            "repro.parallel.executor.ExecutionOutcome"),
    Removed("assignments", "10.0", "session_for(member).pins",
            "repro.parallel.executor.ExecutionOutcome"),
    Removed("_collect_walls", "10.0", "fleet.last_op.wall_seconds"),
    Removed("_RoundFailed", "10.0", "a failed round folds nothing"),
    Removed("retry_safe", "10.0", "a failed round folds nothing"),
    Removed("host_breaker_open", "10.0", "host_health_snapshot()"),
    Removed("_worker_label", "10.0", "the worker address"),
    Removed("_pinned_members", "10.0", "session_for(member).pins"),
    Removed("_live_sessions", "10.0", "session_for(member)"),
    Removed("_locate", "10.0", "FleetStore.route(path)",
            "repro.api.fleet.FleetStore"),
    # 11.0: one frame, one request shape, one probe loop
    Removed("INLINE_BUFFER_BYTES", "11.0", "MAX_FRAME_BYTES"),
    Removed("MAX_FRAME_BUFFERS", "11.0", "MAX_FRAME_BYTES"),
    Removed("_collect", "11.0", "pickle with no buffer_callback",
            "repro.parallel.remote"),
    Removed("_BUF_COUNT", "11.0", "MAX_FRAME_BYTES"),
    Removed("_BUF_LEN", "11.0", "MAX_FRAME_BYTES"),
    Removed("_recv_exact_into", "11.0", "the frame body read"),
    Removed("close", "11.0", "close_connection_pools()",
            "repro.parallel.remote.RpcExecutor"),
    Removed("serialize", "11.0", "run the sequences one after another",
            "repro.parallel.locks.MemberLockSet"),
    Removed("AttackGoal", "11.0", "result.tamper_evident"),
    Removed("verdict_detected", "11.0", "result.status"),
    Removed("audit_device", "11.0", "device.verify_all()"),
    Removed("DotDestroyedError", "11.0", "nothing raised it"),
    # 12.0: a knob is read through policy.resolve(name)
    Removed("resolve_executor_name", "12.0", _ALIASES),
    Removed("resolve_fleet_hosts", "12.0", _ALIASES),
    Removed("resolve_fleet_timeout", "12.0", _ALIASES),
    Removed("resolve_fleet_retries", "12.0", _ALIASES),
    Removed("resolve_fleet_on_failure", "12.0", _ALIASES),
    Removed("resolve_fleet_secret", "12.0", _ALIASES),
    Removed("resolve_gateway_bind", "12.0", _ALIASES),
    Removed("resolve_gateway_token_file", "12.0", _ALIASES),
    Removed("resolve_search_fragment_size", "12.0", _ALIASES),
    Removed("resolve_search_fragment_count", "12.0", _ALIASES),
    Removed("resolve_search_max_hits", "12.0", _ALIASES),
    Removed("EXECUTOR_ENV_VAR", "12.0", _ROW_ENV),
    Removed("FLEET_HOSTS_ENV_VAR", "12.0", _ROW_ENV),
    Removed("FLEET_TIMEOUT_ENV_VAR", "12.0", _ROW_ENV),
    Removed("FLEET_RETRIES_ENV_VAR", "12.0", _ROW_ENV),
    Removed("FLEET_ON_FAILURE_ENV_VAR", "12.0", _ROW_ENV),
    Removed("FLEET_SECRET_ENV_VAR", "12.0", _ROW_ENV),
    Removed("GATEWAY_BIND_ENV_VAR", "12.0", _ROW_ENV),
    Removed("GATEWAY_TOKEN_FILE_ENV_VAR", "12.0", _ROW_ENV),
    Removed("SEARCH_FRAGMENT_SIZE_ENV_VAR", "12.0", _ROW_ENV),
    Removed("SEARCH_FRAGMENT_COUNT_ENV_VAR", "12.0", _ROW_ENV),
    Removed("SEARCH_MAX_HITS_ENV_VAR", "12.0", _ROW_ENV),
    Removed("HOSTS_ENV_VAR", "12.0", _ROW_ENV),
    Removed("DEFAULT_EXECUTOR", "12.0", 'KNOBS["executor"].default'),
    Removed("DEFAULT_GATEWAY_BIND", "12.0", 'KNOBS["gateway_bind"].default'),
    Removed("_alias", "12.0", _ALIASES),
    Removed("extra", "12.0", "nothing read it",
            "repro.gateway.settings.GatewaySettings"),
    # 13.0: a member task is a (store, verb, kwargs) record
    Removed("fold_member_state", "13.0", "the rpc executor folds"),
    Removed("split_task", "13.0", "MemberTask(store, verb, kwargs)"),
    Removed("bind_pinned", "13.0", "MemberTask(store, verb, kwargs)"),
    Removed("PinnedStoreRef", "13.0", "MemberTask(store, verb, kwargs)"),
    Removed("crosses_process", "13.0", "the worker picks the reply form"),
    Removed("run_pinned", "13.0", "the run request"),
    Removed("_audit_member", "13.0", 'MemberTask(store, "audit", ...)'),
    Removed("_seal_many_member", "13.0",
            'MemberTask(store, "seal_many", ...)'),
    Removed("_export_member", "13.0",
            'MemberTask(store, "export_evidence", ...)'),
    Removed("_format_member", "13.0", 'MemberTask(store, "format_device")'),
    Removed("records_logged", "13.0", "len(audit_log.history())"),
    Removed("state_digest_bytes", "13.0", "state_digest_payload()"),
)


def row_id(row: Removed) -> str:
    """The row's test id: ``name@version``."""
    return f"{row.name}@{row.version}"


def owners(row: Removed) -> Tuple[str, ...]:
    if row.owner is None:
        return ()
    return (row.owner,) if isinstance(row.owner, str) else row.owner


def scans_bench_paths(row: Removed) -> bool:
    return row.owner is None and row.version == "9.0"


def env_rows() -> Tuple[Removed, ...]:
    """The rows that name a removed environment variable."""
    return tuple(row for row in REMOVED if row.name.startswith("REPRO_"))
