"""API-surface snapshot: ``repro.api.__all__`` is a frozen contract.

If this test fails you changed the v1 public surface.  That is allowed
— but only deliberately: update ``EXPECTED_API`` (and ``API.md``) in
the same change, and call out the addition/removal in the PR.
"""

import ast
import dataclasses
import hashlib
import importlib.util
import pathlib

import pytest

import repro
import repro.api as api
from repro.api.policy import KNOBS, Knob

#: The frozen surface.  Keep sorted.
EXPECTED_API = sorted([
    # execution policy
    "ExecutionPolicy",
    "describe_policy",
    "engine",
    "get_policy",
    "set_policy",
    # fleet executors (PR 4; remote hosts PR 5; fault tolerance PR 7;
    # signed frames PR 8)
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "FLEET_HOSTS_ENV_VAR",
    "FLEET_ON_FAILURE_ENV_VAR",
    "FLEET_ON_FAILURE_MODES",
    "FLEET_RETRIES_ENV_VAR",
    "FLEET_SECRET_ENV_VAR",
    "FLEET_TIMEOUT_ENV_VAR",
    "FleetExecutor",
    "MemberFailure",
    "resolve_executor_name",
    "resolve_fleet_executor",
    "resolve_fleet_hosts",
    "resolve_fleet_on_failure",
    "resolve_fleet_retries",
    "resolve_fleet_secret",
    "resolve_fleet_timeout",
    # gateway config (PR 8; the service itself is repro.gateway)
    "DEFAULT_GATEWAY_BIND",
    "GATEWAY_BIND_ENV_VAR",
    "GATEWAY_TOKENS_ENV_VAR",
    "GATEWAY_TOKEN_FILE_ENV_VAR",
    "resolve_gateway_bind",
    "resolve_gateway_token_file",
    # evidence search config (PR 10; the index itself is repro.search)
    "SEARCH_FRAGMENT_COUNT_ENV_VAR",
    "SEARCH_FRAGMENT_SIZE_ENV_VAR",
    "SEARCH_MAX_HITS_ENV_VAR",
    "resolve_search_fragment_count",
    "resolve_search_fragment_size",
    "resolve_search_max_hits",
    # store façade
    "ArchiveReceipt",
    "AuditReport",
    "EvidenceExport",
    "FormatReport",
    "MemberVerdictRecord",
    "ObjectInfo",
    "SealReceipt",
    "StoreConfig",
    "TamperEvidentStore",
    "VerifyReport",
    # fleet façade (PR 4; rebalance PR 5)
    "FleetEvidenceExport",
    "FleetStore",
    "MigrationReport",
])

#: The top-level convenience re-exports the quick start relies on.
EXPECTED_TOP_LEVEL = {
    "TamperEvidentStore", "StoreConfig", "ObjectInfo", "SealReceipt",
    "VerifyReport", "AuditReport", "ExecutionPolicy", "engine",
    "FleetStore",
}


def test_api_all_snapshot():
    assert sorted(api.__all__) == EXPECTED_API, (
        "repro.api.__all__ changed; update EXPECTED_API (and API.md) "
        "deliberately if this is intended")


def test_every_api_name_importable():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_dir_covers_lazy_exports():
    listing = dir(api)
    for name in api.__all__:
        assert name in listing


def test_top_level_reexports():
    missing = EXPECTED_TOP_LEVEL - set(repro.__all__)
    assert not missing, f"top-level façade exports missing: {missing}"
    for name in EXPECTED_TOP_LEVEL:
        assert getattr(repro, name) is getattr(api, name)


def test_version_is_v10():
    assert repro.__version__ == "10.0.0"


def test_removed_fleet_doors_stay_shut():
    """4.0: ``FleetStore`` is the only fleet façade and takes only
    stores — no scheduler names, no bare-device wrap."""
    import repro.workloads as workloads
    from repro.device.sero import SERODevice

    assert importlib.util.find_spec("repro.workloads.fleet") is None
    assert not [name for name in dir(workloads)
                if name.startswith(("Fleet", "Device"))]
    assert not hasattr(api, "coerce_member")
    with pytest.raises(TypeError, match=r"TamperEvidentStore\.attach"):
        api.FleetStore([SERODevice.create(16)])
    fleet = api.FleetStore(
        [api.TamperEvidentStore.attach(SERODevice.create(16))])
    with pytest.raises(TypeError, match=r"TamperEvidentStore\.attach"):
        fleet.add_member(SERODevice.create(16))
    assert fleet.member_count == 1


def test_removed_sha256_doors_stay_shut(monkeypatch):
    """5.0: ``hashlib`` is the one SHA-256 and the ``seal`` loop the
    one seal path — no backend knob, pin, lane hash or staged heat."""
    import repro.crypto
    from repro.crypto import hashutil, sha256
    from repro.device.sero import SERODevice
    from repro.fs.lfs import SeroFS

    with pytest.raises(TypeError):
        api.engine(sha256="pure")
    with pytest.raises(TypeError):
        api.ExecutionPolicy(sha256_backend="pure")
    assert len(KNOBS) == len(dataclasses.fields(api.ExecutionPolicy)) == 11
    assert "kwarg" not in {f.name for f in dataclasses.fields(Knob)}
    assert "set_backend" not in repro.crypto.__all__
    for owner, names in (
            (sha256, ("set_backend", "get_backend", "get_pinned_backend",
                      "sha256_many")),
            (hashutil, ("line_hash_many",)),
            (SERODevice, ("heat_lines",)),
            (SeroFS, ("heat_files",))):
        assert not [name for name in names if hasattr(owner, name)], owner

    keys = set(api.describe_policy())
    expected = hashlib.sha256(b"tamper-evident").digest()
    monkeypatch.setenv("REPRO_SHA256_BACKEND", "pure")
    assert sha256.sha256_digest(b"tamper", b"-evident") == expected
    assert set(api.describe_policy()) == keys
    assert not [key for key in keys if "sha256" in key]


def test_removed_crc_doors_stay_shut(monkeypatch):
    """6.0: the standard library's are the one CRC-32 and CRC-16 — no
    module pin, no policy walk, no slicing or position tables."""
    import binascii
    import zlib

    from repro.crypto import crc

    for name in ("USE_VECTORIZED", "_use_vectorized", "resolve_vectorized",
                 "_CRC32_POS_TABLES", "_crc32_pos_table", "_CRC32_T7",
                 "_CRC16_T1"):
        assert not hasattr(crc, name), name
    data = bytes(range(256)) * 2
    monkeypatch.setenv("REPRO_SPAN_ENGINE", "0")
    assert crc.crc32(data, 7) == zlib.crc32(data, 7)
    assert crc.crc16_ccitt(data, 7) == binascii.crc_hqx(data, 7)


def test_removed_engine_doors_stay_shut(monkeypatch):
    """7.0: the numpy engines are the one execution path; the scalar
    reference is an explicit argument of the functions that have a
    twin — no knob, registry, context name, store pin or module pin."""
    from repro.api import policy
    from repro.crypto import manchester
    from repro.device.sero import DeviceConfig

    with pytest.raises(TypeError):
        api.engine("scalar")
    with pytest.raises(TypeError):
        api.ExecutionPolicy(engine="scalar")
    with pytest.raises(TypeError):
        api.StoreConfig(engine="scalar")
    with pytest.raises(TypeError):
        api.TamperEvidentStore.create(total_blocks=16, engine="scalar")
    assert len(KNOBS) == len(dataclasses.fields(api.ExecutionPolicy)) == 11
    assert "engine" not in KNOBS
    removed = ("ENGINE_ENV_VAR", "EngineSpec", "register_engine",
               "unregister_engine", "available_engines", "get_engine",
               "resolve_engine", "resolve_vectorized", "VECTORIZED_ENGINE",
               "SCALAR_ENGINE", "USE_VECTORIZED", "_use_vectorized")
    for owner in (api, policy, manchester, repro):
        assert not [name for name in removed if hasattr(owner, name)], owner
    assert not hasattr(api.TamperEvidentStore, "engine")
    assert "engine" not in api.TamperEvidentStore.create(
        total_blocks=64).describe()

    keys = set(api.describe_policy())
    assert not keys & {"engine", "engine_source", "vectorized",
                       "available_engines"}
    monkeypatch.setenv("REPRO_SPAN_ENGINE", "0")  # a stale export is inert
    assert DeviceConfig().span_engine is True
    assert set(api.describe_policy()) == keys


def test_removed_executor_doors_stay_shut(monkeypatch):
    """8.0: one dispatch per boundary — ``serial`` in-process, ``rpc``
    across processes.  No thread or process pool, no executor registry,
    no worker bound, on any surface."""
    import repro.parallel as parallel
    from repro.api import policy

    monkeypatch.delenv(api.EXECUTOR_ENV_VAR, raising=False)
    for name in ("thread", "process"):
        with pytest.raises(ValueError):
            api.ExecutionPolicy(executor=name)
        with pytest.raises(ValueError):
            api.engine(executor=name)
    with pytest.raises(ValueError):
        api.FleetStore.create(1, executor="process")
    with pytest.raises(TypeError):
        api.ExecutionPolicy(max_workers=2)
    with pytest.raises(TypeError):
        api.FleetStore.create(1, max_workers=2)
    with pytest.raises(TypeError):
        parallel.SerialExecutor(max_workers=2)
    removed = ("ThreadExecutor", "ProcessExecutor", "ExecutorSpec",
               "register_executor", "unregister_executor",
               "available_executors", "get_executor_spec", "make_executor",
               "resolve_max_workers", "FLEET_WORKERS_ENV_VAR")
    for owner in (repro, api, parallel, policy, parallel.executor):
        assert not [name for name in removed if hasattr(owner, name)], owner
    assert "max_workers" not in KNOBS
    assert len(KNOBS) == len(dataclasses.fields(api.ExecutionPolicy)) == 11

    keys = set(api.describe_policy())
    assert not keys & {"max_workers", "max_workers_source",
                       "available_executors"}
    # a stale deployment's exports resolve to the in-process default
    monkeypatch.setenv(api.EXECUTOR_ENV_VAR, "process")
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "4")
    assert api.resolve_executor_name() == ("serial", "default")
    assert set(api.describe_policy()) == keys


def test_removed_bench_doors_stay_shut():
    """9.0: the paper's artifacts are ``tests/test_paper.py`` checks
    and stackbench is the one performance harness — no pointer-walk
    selector beside ``DeviceConfig.span_engine``, no bench path in the
    registry, nothing under ``benchmarks/`` but the stack benchmark."""
    from repro.analysis import Experiment
    from repro.device.sero import SERODevice
    from repro.fs.fsck import deep_scan

    with pytest.raises(TypeError):
        deep_scan(SERODevice.create(16), batch_pointer_reads=True)
    assert "bench" not in {f.name for f in dataclasses.fields(Experiment)}
    benchmarks = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    assert sorted(p.name for p in benchmarks.iterdir()
                  if p.name != "__pycache__") == ["stack"]


def test_removed_pass_record_doors_stay_shut():
    """10.0: one pass contract — a fleet pass takes member-store tasks
    and ``ExecutionOutcome`` is its one record: no second record type,
    no per-worker walls, no plain rpc verb, no duplicate holder walk."""
    import repro.parallel as parallel
    from repro.device.sero import SERODevice
    from repro.parallel import ExecutionOutcome, executor, remote, session

    for owner, names in (
            (api, ("FleetOpStats",)),
            (parallel, ("WorkerWall",)),
            (executor, ("WorkerWall", "_collect_walls")),
            (remote, ("host_breaker_open", "_RoundFailed",
                      "_worker_label", "_pinned_members")),
            (session, ("_live_sessions",)),
            (api.FleetStore, ("_locate",))):
        assert not [name for name in names if hasattr(owner, name)], owner
    assert "WorkerWall" not in parallel.__all__
    fields = {f.name for f in dataclasses.fields(ExecutionOutcome)}
    assert not fields & {"assignments", "worker_walls", "workers"}

    fleet = api.FleetStore(
        [api.TamperEvidentStore.attach(SERODevice.create(16))],
        executor="serial")
    fleet.format_devices()
    assert isinstance(fleet.last_op, ExecutionOutcome)
    assert (fleet.last_op.operation, fleet.last_op.executor) == \
        ("format_devices", "serial")
    assert fleet.last_op.results == []
    assert not [key for key in fleet.describe() if key.startswith("last")]


def _runtime_api_imports(path: pathlib.Path, package: str) -> list:
    """``repro.api`` imports in ``path`` that execute at run time
    (anywhere in the module, function bodies included) — only an
    ``if TYPE_CHECKING:`` block is exempt."""
    parents = package.split(".")

    def visit(node: ast.AST):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            children = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from ..api.policy import x`` in repro.medium -> repro.api.policy
            base = parents[:len(parents) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [f"{module}.{alias.name}" for alias in node.names]
        for name in names:
            if f"{name}.".startswith("repro.api."):
                yield f"{path.name}:{node.lineno} imports {name}"
        for child in children:
            yield from visit(child)

    return list(visit(ast.parse(path.read_text(encoding="utf-8"))))


def test_storage_layers_do_not_import_the_api():
    """7.0: the bottom of the stack asks nothing of the top — no
    module of the storage layers imports ``repro.api`` at run time
    (``fs`` names the façade under ``TYPE_CHECKING`` only)."""
    root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for layer in ("medium", "physics", "crypto", "device", "integrity", "fs"):
        modules = sorted((root / layer).glob("*.py"))
        assert modules, layer
        for path in modules:
            offenders += _runtime_api_imports(path, f"repro.{layer}")
    assert not offenders, offenders


def _knob_table() -> str:
    """API.md's consolidated knob table, rendered from the rows."""
    lines = [
        "| field / `engine()` keyword | env var | default "
        "| unparsable export | secret | meaning |",
        "|---|---|---|---|---|---|"]
    for knob in KNOBS.values():
        bad_env = "raises `ConfigurationError`" if knob.strict_env \
            else "ignored"
        lines.append(
            f"| `{knob.name}` | `{knob.env_var}` "
            f"| `{knob.default!r}` | {bad_env} "
            f"| {'yes' if knob.secret else 'no'} | {knob.doc} |")
    return "\n".join(lines)


def test_api_md_knob_table_matches_rows():
    api_md = pathlib.Path(__file__).resolve().parent.parent / "API.md"
    table = _knob_table()
    assert table in api_md.read_text(encoding="utf-8"), (
        "API.md's knob table and repro.api.policy.KNOBS disagree; "
        "the rows render as:\n" + table)
