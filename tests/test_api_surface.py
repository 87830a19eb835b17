"""API-surface snapshot: ``repro.api.__all__`` is a frozen contract.

If this test fails you changed the v1 public surface.  That is allowed
— but only deliberately: update ``EXPECTED_API`` (and ``API.md``) in
the same change, and call out the addition/removal in the PR.
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from collections.abc import Mapping

import pytest
from removed import (BENCH_PATHS, REMOVED, env_rows, owners, row_id,
                     scans_bench_paths)

import repro
import repro.api as api
from repro.api.policy import KNOBS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The frozen surface.  Keep sorted.
EXPECTED_API = sorted([
    # execution policy (knobs are read through repro.api.policy.resolve)
    "FLEET_ON_FAILURE_MODES",
    "describe_policy",
    "engine",
    # fleet executors
    "FleetExecutor",
    "MemberFailure",
    "resolve_fleet_executor",
    # gateway credentials (the service itself is repro.gateway)
    "GATEWAY_TOKENS_ENV_VAR",
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
    "VerifyReport", "AuditReport", "engine", "FleetStore",
}


def test_api_all_snapshot():
    assert sorted(api.__all__) == EXPECTED_API, (
        "repro.api.__all__ changed; update EXPECTED_API (and API.md) "
        "deliberately if this is intended")


def test_every_api_name_importable():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_dir_covers_lazy_exports():
    import repro.parallel
    import repro.workloads

    for module in (api, repro, repro.parallel, repro.workloads):
        listing = dir(module)
        for name in module.__all__:
            assert name in listing, (module.__name__, name)


def test_top_level_reexports():
    missing = EXPECTED_TOP_LEVEL - set(repro.__all__)
    assert not missing, f"top-level façade exports missing: {missing}"
    for name in EXPECTED_TOP_LEVEL:
        assert getattr(repro, name) is getattr(api, name)
    for name in repro.__all__:  # served lazily, listed by dir()
        assert getattr(repro, name) is not None and name in dir(repro)
    with pytest.raises(AttributeError):
        repro.ExecutionPolicy


def test_storage_layer_import_loads_no_upper_layer():
    """The package root is lazy (PEP 562): importing the medium loads
    no façade, gateway, search or fleet module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    code = ("import sys, repro.medium.medium; "
            "print(' '.join(m for m in sys.modules if m.startswith('repro')))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "repro.medium.medium" in loaded
    upper = [name for name in loaded if name.startswith(
        ("repro.api", "repro.gateway", "repro.search", "repro.parallel"))]
    assert not upper, upper


def test_version_is_v19():
    assert repro.__version__ == "19.0.0"


@pytest.mark.parametrize("row", REMOVED, ids=row_id)
def test_name_stays_removed(row):
    """Each ledger row: a distinctive name appears nowhere in ``src/``
    (nor, for the 9.0 bench rows, where the bench harness was named);
    a generic one is no attribute, field, parameter or submodule of its
    owners."""
    if row.owner is None:
        paths = list(SRC.rglob("*.py"))
        if scans_bench_paths(row):
            paths += _bench_files()
        pattern = _word(row.name)
        hits = [str(path.relative_to(ROOT)) for path in paths
                if pattern.search(_text(path))]
        assert not hits, \
            f"{row.name} (removed in {row.version}) is back in {hits}"
    for dotted in owners(row):
        assert not _owns(pkgutil.resolve_name(dotted), row.name), \
            f"{dotted}.{row.name} (removed in {row.version}) is back"


def test_every_removal_is_documented():
    """A removal cannot ship undocumented: API.md names every row."""
    api_md = (ROOT / "API.md").read_text(encoding="utf-8")
    missing = [row_id(row) for row in REMOVED
               if not _word(row.name).search(api_md)]
    assert not missing, missing


def test_exports_of_removed_variables_are_inert(monkeypatch):
    """A stale deployment's export of a removed variable changes
    nothing: ``describe_policy()`` reads exactly as without it."""
    rows = env_rows()
    assert {row.name for row in rows} >= {
        "REPRO_SPAN_ENGINE", "REPRO_SHA256_BACKEND", "REPRO_FLEET_WORKERS",
        "REPRO_FLEET_SESSIONS", "REPRO_GATEWAY_LOCK_MODE"}
    before = api.describe_policy()
    for row in rows:
        monkeypatch.setenv(row.name, "garbage")
        assert api.describe_policy() == before, row.name


@functools.lru_cache(maxsize=None)
def _text(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def _word(name: str) -> "re.Pattern[str]":
    """``name`` as a whole word; a trailing ``*`` makes it a prefix."""
    if name.endswith("*"):
        return re.compile(r"(?<!\w)" + re.escape(name[:-1]))
    return re.compile(r"(?<!\w)" + re.escape(name) + r"(?!\w)")


def _bench_files() -> list:
    files = []
    for relative in BENCH_PATHS:
        path = ROOT / relative
        found = [path] if path.is_file() else sorted(path.rglob("*"))
        files += [f for f in found if f.is_file()
                  and "__pycache__" not in f.parts
                  and f.name != "removed.py"]
    return files


def _owns(owner, name: str) -> bool:
    """``name`` is a key (of a mapping owner such as ``KNOBS``), an
    attribute, dataclass field, parameter or submodule of ``owner``."""
    if isinstance(owner, Mapping):
        return name in owner
    if hasattr(owner, name):
        return True
    if dataclasses.is_dataclass(owner) and \
            name in {f.name for f in dataclasses.fields(owner)}:
        return True
    if inspect.ismodule(owner):
        return hasattr(owner, "__path__") and importlib.util.find_spec(
            f"{owner.__name__}.{name}") is not None
    try:
        return name in inspect.signature(owner).parameters
    except (TypeError, ValueError):
        return False


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
        "| `engine()` keyword | env var | default "
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
    table = _knob_table()
    assert table in (ROOT / "API.md").read_text(encoding="utf-8"), (
        "API.md's knob table and repro.api.policy.KNOBS disagree; "
        "the rows render as:\n" + table)
