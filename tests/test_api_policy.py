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
    resolve_executor_name,
    set_policy,
)


@pytest.fixture(autouse=True)
def _clean_policy_state(monkeypatch):
    """Every test starts from the default resolution state (no env, no
    installed policy)."""
    monkeypatch.delenv(pol.EXECUTOR_ENV_VAR, raising=False)
    set_policy(None)
    yield
    set_policy(None)


def test_default_is_vectorized():
    # 7.0: the numpy engines are plain defaults of the five functions
    # that have a scalar twin; no ambient lookup stands behind them
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
    assert resolve_executor_name() == ("serial", "default")
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "rpc")
    assert resolve_executor_name() == ("rpc", "env")
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "RPC")
    assert resolve_executor_name() == ("rpc", "env")
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "SERIAL")
    assert resolve_executor_name() == ("serial", "env")
    monkeypatch.delenv(pol.EXECUTOR_ENV_VAR)
    assert resolve_executor_name() == ("serial", "default")


def test_policy_beats_env(monkeypatch):
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "rpc")
    set_policy(ExecutionPolicy(executor="serial"))
    assert resolve_executor_name() == ("serial", "policy")
    set_policy(None)
    assert resolve_executor_name() == ("rpc", "env")


def test_context_beats_policy():
    set_policy(ExecutionPolicy(executor="serial"))
    with engine(executor="rpc"):
        assert resolve_executor_name() == ("rpc", "context")
    assert resolve_executor_name() == ("serial", "policy")


def test_explicit_arg_beats_everything(monkeypatch):
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "rpc")
    set_policy(ExecutionPolicy(executor="rpc"))
    with engine(executor="rpc"):
        assert resolve_executor_name("serial") == ("serial", "explicit")


def test_nested_contexts_innermost_wins():
    with engine(executor="rpc"):
        assert resolve_executor_name()[0] == "rpc"
        with engine(executor="serial"):
            assert resolve_executor_name()[0] == "serial"
            with engine(executor="rpc"):
                assert resolve_executor_name()[0] == "rpc"
            assert resolve_executor_name() == ("serial", "context")
        assert resolve_executor_name()[0] == "rpc"
    assert resolve_executor_name() == ("serial", "default")


def test_policy_use_context():
    custom = ExecutionPolicy(executor="rpc")
    with custom.use():
        assert resolve_executor_name() == ("rpc", "context")
    assert resolve_executor_name() == ("serial", "default")


def test_describe_policy_reports_source(monkeypatch):
    snap = describe_policy()
    assert snap["executor"] == "serial"
    assert snap["executor_source"] == "default"
    monkeypatch.setenv(pol.EXECUTOR_ENV_VAR, "rpc")
    assert describe_policy()["executor_source"] == "env"
    set_policy(ExecutionPolicy(executor="rpc"))
    assert describe_policy()["executor_source"] == "policy"
    with engine(executor="serial"):
        snap = describe_policy()
        assert snap["executor_source"] == "context"
        assert snap["executor"] == "serial"


def test_top_level_engine_export():
    with repro.engine(executor="rpc"):
        assert repro.api.resolve_executor_name() == ("rpc", "context")


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
