"""API-surface snapshot: ``repro.api.__all__`` is a frozen contract.

If this test fails you changed the v1 public surface.  That is allowed
— but only deliberately: update ``EXPECTED_API`` (and ``API.md``) in
the same change, and call out the addition/removal in the PR.
"""

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
    "ENGINE_ENV_VAR",
    "EngineSpec",
    "ExecutionPolicy",
    "available_engines",
    "describe_policy",
    "engine",
    "get_engine",
    "get_policy",
    "register_engine",
    "resolve_engine",
    "resolve_vectorized",
    "set_policy",
    "unregister_engine",
    # fleet executors (PR 4; remote hosts PR 5; fault tolerance PR 7;
    # signed frames PR 8)
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "ExecutorSpec",
    "FLEET_HOSTS_ENV_VAR",
    "FLEET_ON_FAILURE_ENV_VAR",
    "FLEET_ON_FAILURE_MODES",
    "FLEET_RETRIES_ENV_VAR",
    "FLEET_SECRET_ENV_VAR",
    "FLEET_TIMEOUT_ENV_VAR",
    "FLEET_WORKERS_ENV_VAR",
    "FleetExecutor",
    "MemberFailure",
    "available_executors",
    "get_executor_spec",
    "register_executor",
    "resolve_executor_name",
    "resolve_fleet_executor",
    "resolve_fleet_hosts",
    "resolve_fleet_on_failure",
    "resolve_fleet_retries",
    "resolve_fleet_secret",
    "resolve_fleet_timeout",
    "resolve_max_workers",
    "unregister_executor",
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
    "FleetOpStats",
    "FleetStore",
    "MigrationReport",
])

#: The top-level convenience re-exports the quick start relies on.
EXPECTED_TOP_LEVEL = {
    "TamperEvidentStore", "StoreConfig", "ObjectInfo", "SealReceipt",
    "VerifyReport", "AuditReport", "ExecutionPolicy", "EngineSpec",
    "engine", "FleetStore",
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


def test_version_is_v6():
    assert repro.__version__ == "6.0.0"


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
    assert len(KNOBS) == len(dataclasses.fields(api.ExecutionPolicy)) == 13
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
    with api.engine("scalar"):
        assert crc.crc32(data, 7) == zlib.crc32(data, 7)
        assert crc.crc16_ccitt(data, 7) == binascii.crc_hqx(data, 7)


def _knob_table() -> str:
    """API.md's consolidated knob table, rendered from the rows."""
    lines = [
        "| field | `engine()` keyword | env var | default "
        "| unparsable export | secret | meaning |",
        "|---|---|---|---|---|---|---|"]
    for knob in KNOBS.values():
        keyword = "`name` (positional)" if knob.name == "engine" \
            else f"`{knob.name}`"
        bad_env = "raises `ConfigurationError`" if knob.strict_env \
            else "ignored"
        lines.append(
            f"| `{knob.name}` | {keyword} | `{knob.env_var}` "
            f"| `{knob.default!r}` | {bad_env} "
            f"| {'yes' if knob.secret else 'no'} | {knob.doc} |")
    return "\n".join(lines)


def test_api_md_knob_table_matches_rows():
    api_md = pathlib.Path(__file__).resolve().parent.parent / "API.md"
    table = _knob_table()
    assert table in api_md.read_text(encoding="utf-8"), (
        "API.md's knob table and repro.api.policy.KNOBS disagree; "
        "the rows render as:\n" + table)
