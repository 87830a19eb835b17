"""Execution-policy tests: resolution precedence, nested contexts,
lazy environment reads, the deprecation shim."""

import warnings

import pytest

import repro
from repro.api import policy as pol
from repro.api.policy import (
    EngineSpec,
    ExecutionPolicy,
    available_engines,
    describe_policy,
    engine,
    get_engine,
    register_engine,
    resolve_engine,
    resolve_vectorized,
    set_policy,
    unregister_engine,
)
from repro.crypto import crc, manchester


@pytest.fixture(autouse=True)
def _clean_policy_state(monkeypatch):
    """Every test starts from the default resolution state (no env, no
    installed policy, no module pins leaked by other test files)."""
    monkeypatch.delenv(pol.ENGINE_ENV_VAR, raising=False)
    set_policy(None)
    monkeypatch.setattr(manchester, "USE_VECTORIZED", None)
    yield
    set_policy(None)


# -- resolution precedence: arg > context > policy > env > default ----------


def test_default_is_vectorized():
    assert resolve_vectorized() is True
    assert resolve_engine().name == "vectorized"


def test_env_layer_is_read_lazily(monkeypatch):
    # flipping the variable *after import* must take effect everywhere
    assert resolve_vectorized() is True
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "0")
    assert resolve_vectorized() is False
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "scalar")
    assert resolve_engine().name == "scalar"
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "vectorized")
    assert resolve_vectorized() is True


def test_policy_beats_env(monkeypatch):
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "0")
    set_policy(ExecutionPolicy(engine="vectorized"))
    assert resolve_vectorized() is True
    set_policy(None)
    assert resolve_vectorized() is False


def test_context_beats_policy(monkeypatch):
    set_policy(ExecutionPolicy(engine="vectorized"))
    with engine("scalar"):
        assert resolve_vectorized() is False
    assert resolve_vectorized() is True


def test_explicit_arg_beats_everything(monkeypatch):
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "0")
    set_policy(ExecutionPolicy(engine="scalar"))
    with engine("scalar"):
        assert resolve_vectorized(True) is True
        assert resolve_vectorized("vectorized") is True
        assert resolve_engine(False).name == "scalar"


def test_nested_contexts_innermost_wins():
    with engine("scalar"):
        assert resolve_engine().name == "scalar"
        with engine("vectorized"):
            assert resolve_engine().name == "vectorized"
            with engine("scalar"):
                assert resolve_vectorized() is False
            assert resolve_vectorized() is True
        assert resolve_engine().name == "scalar"
    assert resolve_engine().name == "vectorized"


def test_context_with_no_engine_defers():
    with engine(search_max_hits=7):  # pins only another knob
        assert resolve_vectorized() is True
        with engine("scalar"):
            assert resolve_vectorized() is False
            assert pol.resolve_search_max_hits() == (7, "context")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        resolve_engine("warp-drive")
    with pytest.raises(ValueError):
        ExecutionPolicy(engine="warp-drive")


def test_policy_use_context():
    custom = ExecutionPolicy(engine="scalar")
    with custom.use():
        assert resolve_vectorized() is False
    assert resolve_vectorized() is True


# -- engine registry --------------------------------------------------------


def test_builtin_engines_registered():
    assert {"vectorized", "scalar"} <= set(available_engines())
    assert get_engine("vectorized").vectorized is True
    assert get_engine("scalar").vectorized is False


def test_register_custom_engine_selectable():
    register_engine(EngineSpec("sharded_test", True,
                               "pretend fleet backend"))
    try:
        with engine("sharded_test"):
            assert resolve_engine().name == "sharded_test"
            assert resolve_vectorized() is True
        set_policy(ExecutionPolicy(engine="sharded_test"))
        assert resolve_engine().name == "sharded_test"
    finally:
        set_policy(None)
        unregister_engine("sharded_test")
    with pytest.raises(ValueError):
        get_engine("sharded_test")


def test_register_duplicate_engine_rejected():
    with pytest.raises(ValueError):
        register_engine(EngineSpec("scalar", False))
    with pytest.raises(ValueError):
        unregister_engine("vectorized")


def test_describe_policy_reports_source(monkeypatch):
    snap = describe_policy()
    assert snap["engine"] == "vectorized"
    assert snap["engine_source"] == "default"
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "off")
    assert describe_policy()["engine_source"] == "env"
    set_policy(ExecutionPolicy(engine="vectorized"))
    assert describe_policy()["engine_source"] == "policy"
    with engine("scalar"):
        snap = describe_policy()
        assert snap["engine_source"] == "context"
        assert snap["vectorized"] is False


# -- the lazy switch actually reaches the leaf modules ----------------------


def test_crc_and_manchester_flip_after_import(monkeypatch):
    data = b"the quick brown fox" * 11
    # 6.0: the CRCs have one engine (the standard library's) whatever
    # the policy says; the from-scratch loops are its reference
    reference = crc._crc32_scalar(data, 0xFFFFFFFF) ^ 0xFFFFFFFF
    assert crc.crc32(data) == reference
    assert crc.crc16_ccitt(data) == crc._crc16_scalar(data, 0xFFFF)
    assert manchester._use_vectorized() is True
    monkeypatch.setenv(pol.ENGINE_ENV_VAR, "0")
    assert crc.crc32(data) == reference
    assert crc.crc16_ccitt(data) == crc._crc16_scalar(data, 0xFFFF)
    assert manchester._use_vectorized() is False
    monkeypatch.delenv(pol.ENGINE_ENV_VAR)
    assert manchester._use_vectorized() is True


def test_module_pin_beats_policy():
    try:
        manchester.USE_VECTORIZED = False
        with engine("vectorized"):
            assert manchester._use_vectorized() is False
    finally:
        manchester.USE_VECTORIZED = None
    with engine("scalar"):
        assert manchester._use_vectorized() is False


def test_device_config_resolves_policy_at_construction():
    from repro.device.sero import DeviceConfig

    with engine("scalar"):
        assert DeviceConfig().span_engine is False
    assert DeviceConfig().span_engine is True


def test_scan_for_defects_honours_context():
    from repro.device.sero import SERODevice
    from repro.medium.defects import scan_for_defects

    device = SERODevice.create(8)
    with engine("scalar"):
        scalar_report = scan_for_defects(device.medium)
    vec_report = scan_for_defects(device.medium)
    assert scalar_report == vec_report


def test_top_level_engine_export():
    with repro.engine("scalar"):
        assert repro.api.resolve_vectorized() is False


# -- gateway / fleet-secret knobs (ISSUE 8) ---------------------------------


def test_fleet_secret_resolution_layers(monkeypatch):
    monkeypatch.delenv(pol.FLEET_SECRET_ENV_VAR, raising=False)
    assert pol.resolve_fleet_secret() == (None, "default")

    monkeypatch.setenv(pol.FLEET_SECRET_ENV_VAR, "env-key")
    assert pol.resolve_fleet_secret() == ("env-key", "env")

    set_policy(ExecutionPolicy(fleet_secret="policy-key"))
    assert pol.resolve_fleet_secret() == ("policy-key", "policy")

    with engine(fleet_secret="context-key"):
        assert pol.resolve_fleet_secret() == ("context-key", "context")

    assert pol.resolve_fleet_secret("arg-key") == ("arg-key", "explicit")


def test_fleet_secret_validated_and_masked_in_describe(monkeypatch):
    with pytest.raises(ValueError):
        ExecutionPolicy(fleet_secret="")
    with pytest.raises(TypeError):
        ExecutionPolicy(fleet_secret=123)
    set_policy(ExecutionPolicy(fleet_secret="s3cret-material"))
    described = describe_policy()
    assert described["fleet_secret_set"] is True
    assert described["fleet_secret_source"] == "policy"
    assert "s3cret-material" not in repr(described)
    set_policy(None)
    assert describe_policy()["fleet_secret_set"] is False


def test_gateway_bind_resolution_layers(monkeypatch):
    monkeypatch.delenv(pol.GATEWAY_BIND_ENV_VAR, raising=False)
    assert pol.resolve_gateway_bind() == \
        (pol.DEFAULT_GATEWAY_BIND, "default")

    monkeypatch.setenv(pol.GATEWAY_BIND_ENV_VAR, "0.0.0.0:9100")
    assert pol.resolve_gateway_bind() == ("0.0.0.0:9100", "env")

    set_policy(ExecutionPolicy(gateway_bind="127.0.0.1:9200"))
    assert pol.resolve_gateway_bind() == ("127.0.0.1:9200", "policy")

    with engine(gateway_bind="127.0.0.1:9300"):
        assert pol.resolve_gateway_bind() == \
            ("127.0.0.1:9300", "context")

    assert pol.resolve_gateway_bind("h:9400") == ("h:9400", "explicit")
    with pytest.raises(Exception):
        ExecutionPolicy(gateway_bind="nonsense")


def test_gateway_token_file_resolution_layers(monkeypatch):
    monkeypatch.delenv(pol.GATEWAY_TOKEN_FILE_ENV_VAR, raising=False)
    assert pol.resolve_gateway_token_file() == (None, "default")

    monkeypatch.setenv(pol.GATEWAY_TOKEN_FILE_ENV_VAR, "/etc/tk")
    assert pol.resolve_gateway_token_file() == ("/etc/tk", "env")

    set_policy(ExecutionPolicy(gateway_token_file="/srv/tk"))
    assert pol.resolve_gateway_token_file() == ("/srv/tk", "policy")

    with engine(gateway_token_file="/ctx/tk"):
        assert pol.resolve_gateway_token_file() == ("/ctx/tk", "context")

    assert pol.resolve_gateway_token_file("/x/tk") == \
        ("/x/tk", "explicit")
