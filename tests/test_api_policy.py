"""Execution-policy tests: resolution precedence, nested contexts and
lazy environment reads, spelled out on the ``executor`` row
(``tests/test_policy_properties.py`` proves the same order for every
row).  Which protocol implementation runs is not a policy question
since 7.0 — see ``test_default_is_vectorized``."""

import inspect

import pytest

import repro
from repro.api import policy as pol
from repro.api.policy import (
    ExecutionPolicy,
    describe_policy,
    engine,
    resolve,
    set_policy,
)


@pytest.fixture(autouse=True)
def _clean_policy_state(monkeypatch):
    """Every test starts from the default resolution state (no env, no
    installed policy)."""
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    set_policy(None)
    yield
    set_policy(None)


def test_default_is_vectorized(monkeypatch):
    # 7.0: the numpy engines are plain defaults of the five functions
    # that have a scalar twin; no ambient lookup stands behind them
    monkeypatch.setenv("REPRO_SPAN_ENGINE", "0")  # a stale export is inert
    from repro.device.sero import DeviceConfig
    from repro.integrity.venti import VentiStore
    from repro.medium.defects import scan_for_defects
    from repro.medium.medium import PatternedMedium
    from repro.physics.annealing import anneal_series

    assert DeviceConfig().span_engine is True
    assert VentiStore.__dataclass_fields__["batched"].default is True
    for func in (scan_for_defects, PatternedMedium.heat_span, anneal_series):
        assert inspect.signature(func).parameters["vectorized"].default is True


# -- resolution precedence: arg > context > policy > env > default ----------


def test_env_layer_is_read_lazily(monkeypatch):
    # flipping the variable *after import* must take effect everywhere
    assert resolve("executor") == ("serial", "default")
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    assert resolve("executor") == ("rpc", "env")
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "RPC")
    assert resolve("executor") == ("rpc", "env")
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "SERIAL")
    assert resolve("executor") == ("serial", "env")
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR")
    assert resolve("executor") == ("serial", "default")
    # 8.0 removed the process executor: a stale export runs serial
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "process")
    assert resolve("executor") == ("serial", "default")


def test_engine_takes_knob_keywords_only():
    # 7.0: no positional engine name; 8.0: two executors
    with pytest.raises(TypeError):
        engine("scalar")
    for name in ("thread", "process"):
        with pytest.raises(ValueError):
            engine(executor=name)


def test_policy_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    set_policy(ExecutionPolicy(executor="serial"))
    assert resolve("executor") == ("serial", "policy")
    set_policy(None)
    assert resolve("executor") == ("rpc", "env")


def test_context_beats_policy():
    set_policy(ExecutionPolicy(executor="serial"))
    with engine(executor="rpc"):
        assert resolve("executor") == ("rpc", "context")
    assert resolve("executor") == ("serial", "policy")


def test_explicit_arg_beats_everything(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    set_policy(ExecutionPolicy(executor="rpc"))
    with engine(executor="rpc"):
        assert resolve("executor", "serial") == ("serial", "explicit")


def test_nested_contexts_innermost_wins():
    with engine(executor="rpc"):
        assert resolve("executor")[0] == "rpc"
        with engine(executor="serial"):
            assert resolve("executor")[0] == "serial"
            with engine(executor="rpc"):
                assert resolve("executor")[0] == "rpc"
            assert resolve("executor") == ("serial", "context")
        assert resolve("executor")[0] == "rpc"
    assert resolve("executor") == ("serial", "default")


def test_policy_use_context():
    custom = ExecutionPolicy(executor="rpc")
    with custom.use():
        assert resolve("executor") == ("rpc", "context")
    assert resolve("executor") == ("serial", "default")


def test_describe_policy_reports_source(monkeypatch):
    snap = describe_policy()
    assert snap["executor"] == "serial"
    assert snap["executor_source"] == "default"
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    assert describe_policy()["executor_source"] == "env"
    set_policy(ExecutionPolicy(executor="rpc"))
    assert describe_policy()["executor_source"] == "policy"
    with engine(executor="serial"):
        snap = describe_policy()
        assert snap["executor_source"] == "context"
        assert snap["executor"] == "serial"


def test_top_level_engine_export():
    with repro.engine(executor="rpc"):
        assert resolve("executor") == ("rpc", "context")


# -- gateway / fleet-secret knobs (ISSUE 8) ---------------------------------


def test_fleet_secret_resolution_layers(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_SECRET", raising=False)
    assert resolve("fleet_secret") == (None, "default")

    monkeypatch.setenv("REPRO_FLEET_SECRET", "env-key")
    assert resolve("fleet_secret") == ("env-key", "env")

    set_policy(ExecutionPolicy(fleet_secret="policy-key"))
    assert resolve("fleet_secret") == ("policy-key", "policy")

    with engine(fleet_secret="context-key"):
        assert resolve("fleet_secret") == ("context-key", "context")

    assert resolve("fleet_secret", "arg-key") == ("arg-key", "explicit")


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
    monkeypatch.delenv("REPRO_GATEWAY_BIND", raising=False)
    assert resolve("gateway_bind") == \
        ("127.0.0.1:8473", "default")

    monkeypatch.setenv("REPRO_GATEWAY_BIND", "0.0.0.0:9100")
    assert resolve("gateway_bind") == ("0.0.0.0:9100", "env")

    set_policy(ExecutionPolicy(gateway_bind="127.0.0.1:9200"))
    assert resolve("gateway_bind") == ("127.0.0.1:9200", "policy")

    with engine(gateway_bind="127.0.0.1:9300"):
        assert resolve("gateway_bind") == \
            ("127.0.0.1:9300", "context")

    assert resolve("gateway_bind", "h:9400") == ("h:9400", "explicit")
    with pytest.raises(Exception):
        ExecutionPolicy(gateway_bind="nonsense")


def test_gateway_token_file_resolution_layers(monkeypatch):
    monkeypatch.delenv("REPRO_GATEWAY_TOKEN_FILE", raising=False)
    assert resolve("gateway_token_file") == (None, "default")

    monkeypatch.setenv("REPRO_GATEWAY_TOKEN_FILE", "/etc/tk")
    assert resolve("gateway_token_file") == ("/etc/tk", "env")

    set_policy(ExecutionPolicy(gateway_token_file="/srv/tk"))
    assert resolve("gateway_token_file") == ("/srv/tk", "policy")

    with engine(gateway_token_file="/ctx/tk"):
        assert resolve("gateway_token_file") == ("/ctx/tk", "context")

    assert resolve("gateway_token_file", "/x/tk") == \
        ("/x/tk", "explicit")
