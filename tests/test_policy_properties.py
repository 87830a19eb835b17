"""Properties of the knob table (``repro.api.policy.KNOBS``).

One property runs over *every* row with generated values per layer:
explicit > innermost context > outer context > env > default; the env
var is read at call time; ``describe_policy()`` agrees with
``resolve``; a secret row's value never reaches a repr or a
diagnostics dump.  Adding a knob is adding a row: a temporary row is
an ``engine()`` keyword, an env var and a ``describe`` entry with no
other edit.  The rest pins what one validator per row buys: every
layer accepts, canonicalises and rejects the same values.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import policy as pol
from repro.api.policy import KNOBS, Knob, describe_policy, engine, resolve
from repro.errors import ConfigurationError
from repro.gateway import GatewaySettings

_HOST = st.builds("{}:{}".format,
                  st.text("abcdefghij", min_size=1, max_size=8),
                  st.integers(1, 65535))

#: Valid explicit values per row.  A row without an entry fails
#: ``test_every_row_has_a_strategy``: a new knob joins the property.
VALID = {
    "executor": st.sampled_from(("serial", "rpc")),
    "fleet_hosts": st.lists(_HOST, min_size=1, max_size=3,
                            unique=True).map(tuple),
    "fleet_timeout": st.floats(1e-3, 1e6),
    "fleet_retries": st.integers(0, 9),
    "fleet_on_failure": st.sampled_from(pol.FLEET_ON_FAILURE_MODES),
    "fleet_secret": st.text("0123456789abcdef", min_size=12,
                            max_size=24).map("s3cr3t-".__add__),
    "gateway_bind": _HOST,
    "gateway_token_file": st.text("abcdefghij/", min_size=1,
                                  max_size=12).map("/etc/".__add__),
    "search_fragment_size": st.integers(1, 400),
    "search_fragment_count": st.integers(0, 9),
    "search_max_hits": st.integers(1, 400),
}

#: Exports no row's validator accepts as that row's value.
GARBAGE = {
    "executor": ("warp-drive", "thread", "process"),
    "fleet_hosts": ("nonsense", "h:1,h:1", "h:99999"),
    "fleet_timeout": ("soon", "nan", "inf", "Infinity"),
    "fleet_retries": ("lots", "-2", "1.5"),
    "fleet_on_failure": ("explode",),
    "gateway_bind": ("nonsense", ":80", "h:port"),
    "search_fragment_size": ("wide", "0"),
    "search_fragment_count": ("some", "-1"),
    "search_max_hits": ("many", "0"),
}


def _env_text(value) -> str:
    return ",".join(value) if isinstance(value, tuple) else str(value)


@pytest.fixture(autouse=True)
def _clean_resolution_state(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env_var, raising=False)


def _described(name):
    """(value or presence, source) as ``describe_policy()`` reports it."""
    knob, snapshot = KNOBS[name], describe_policy()
    shown = snapshot[f"{name}_set"] if knob.secret else snapshot[name]
    return shown, snapshot[f"{name}_source"]


def test_every_row_has_a_strategy():
    assert set(VALID) == set(KNOBS)


def test_adding_a_knob_is_adding_a_row(monkeypatch):
    """One new row, no other edit: it is an ``engine()`` keyword
    checked by the row, an env var read at call time, a
    ``describe_policy()`` entry and a gateway ``describe`` entry — and
    a secret row is masked in all of them."""
    level = Knob("demo_level", "REPRO_DEMO_LEVEL", 4,
                 pol._int_at_least("demo_level", 0), int,
                 doc="a knob that exists only in this test")
    token = Knob("demo_token", "REPRO_DEMO_TOKEN", None,
                 pol._typed("demo_token", str, "a non-empty str", bool),
                 secret=True)
    for row in (level, token):
        monkeypatch.setitem(KNOBS, row.name, row)
        monkeypatch.delenv(row.env_var, raising=False)
    gateway = GatewaySettings.resolve(tokens="root-tok=admin")

    def seen(name):
        described = describe_policy()
        assert {key: value for key, value in described.items()
                if key.startswith(name)} == \
            {key: value for key, value in gateway.describe()[
                "policy"].items() if key.startswith(name)}
        shown = described[f"{name}_set"] if KNOBS[name].secret \
            else described[name]
        return shown, described[f"{name}_source"]

    assert resolve("demo_level") == (4, "default")
    assert seen("demo_level") == (4, "default")
    assert seen("demo_token") == (False, "default")
    monkeypatch.setenv("REPRO_DEMO_LEVEL", " 7 ")
    monkeypatch.setenv("REPRO_DEMO_TOKEN", "env-token-material")
    assert seen("demo_level") == (7, "env")
    assert seen("demo_token") == (True, "env")
    with engine(demo_level=9, demo_token="scope-token-material") as scope:
        assert seen("demo_level") == (9, "context")
        assert seen("demo_token") == (True, "context")
        assert resolve("demo_token") == ("scope-token-material", "context")
        dumps = repr(scope) + repr(describe_policy()) + \
            repr(gateway.describe())
    assert "demo_level=9" in repr(scope)
    assert "token-material" not in dumps
    assert resolve("demo_level", 2) == (2, "explicit")
    for bad in (True, -1, "3"):
        with pytest.raises((TypeError, ValueError)):
            engine(demo_level=bad)
    monkeypatch.setenv("REPRO_DEMO_LEVEL", "lots")  # ignored, not strict
    assert seen("demo_level") == (4, "default")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KNOBS)))
def test_layer_order_holds_for_every_row(data, name):
    knob = KNOBS[name]
    explicit, inner, outer, exported = (
        data.draw(VALID[name], label=layer) for layer in
        ("explicit", "inner context", "outer context", "env"))
    assume(knob.check(inner) != knob.check(outer))

    def expect(value, source):
        canonical = value if source == "default" else knob.check(value)
        assert resolve(name) == (canonical, source)
        shown = (canonical is not None) if knob.secret else canonical
        assert _described(name) == (shown, source)

    expect(knob.default, "default")
    with mock.patch.dict(
            os.environ, {knob.env_var: f"  {_env_text(exported)} "}):
        expect(exported, "env")  # read now, not at import
        with engine(**{name: outer}):
            expect(outer, "context")
            with engine(**{name: inner}), engine():
                expect(inner, "context")  # engine() pins nothing
                assert resolve(name, explicit) == \
                    (knob.check(explicit), "explicit")
            expect(outer, "context")
        expect(exported, "env")
    expect(knob.default, "default")  # unset again


@settings(max_examples=25, deadline=None)
@given(secret=VALID["fleet_secret"])
def test_secret_rows_never_surface(secret):
    (name,) = (name for name, knob in KNOBS.items() if knob.secret)
    gateway = GatewaySettings.resolve(tokens="root-tok=admin")
    with engine(**{name: secret}) as scope:
        snapshot = describe_policy()
        described = gateway.describe()
    assert snapshot[f"{name}_set"] is True
    assert name not in snapshot
    assert described["policy"][f"{name}_set"] is True
    for dump in (repr(scope), repr(snapshot), repr(described)):
        assert secret not in dump


@pytest.mark.parametrize("name,text", [
    (name, text) for name, texts in GARBAGE.items() for text in texts])
def test_garbage_export_is_ignored_unless_the_row_is_strict(
        monkeypatch, name, text):
    knob = KNOBS[name]
    monkeypatch.setenv(knob.env_var, text)
    if knob.strict_env:  # a bad address must stay loud
        with pytest.raises(ConfigurationError):
            resolve(name)
    else:  # a stale export must not crash a fleet node
        assert resolve(name) == (knob.default, "default")


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_blank_export_counts_as_unset(monkeypatch, name):
    monkeypatch.setenv(KNOBS[name].env_var, "   ")
    assert resolve(name) == (KNOBS[name].default, "default")


# -- one validator per row: every layer agrees ---------------------------------

ODD_VALUES = (
    True, False, 0, 1, -1, 3, 2.5, 7.0, float("nan"), float("inf"),
    -float("inf"), "", " ", "5", "scalar", "pure", "thread", "degrade",
    "a:1", "b:2,a:1", "nonsense", ("b:2", "a:1"), ["a:1", "a:1"], (),
    b"bytes", 5j, object(),
)


def _outcome(build):
    try:
        return "value", build()
    except (TypeError, ValueError, ConfigurationError) as exc:
        return "raises", type(exc)


def _scoped(name, value):
    """``value`` as the context layer resolves it."""
    with engine(**{name: value}):
        return resolve(name)[0]


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_explicit_and_policy_layers_share_one_validator(name):
    for value in ODD_VALUES:
        assert _outcome(lambda: resolve(name, value)[0]) == _outcome(
            lambda: _scoped(name, value)), (name, value)


def test_int_rows_reject_bools_and_floats():
    for name in ("fleet_retries", "search_fragment_size",
                 "search_fragment_count", "search_max_hits"):
        for value in (True, 2.5, 2.0, "2"):
            with pytest.raises(TypeError):
                resolve(name, value)
            with pytest.raises(TypeError):
                engine(**{name: value})


def test_fleet_timeout_validates_alike_and_canonicalises_to_float():
    for value in (True, "5"):
        with pytest.raises(TypeError):
            resolve("fleet_timeout", value)
        with pytest.raises(TypeError):
            engine(fleet_timeout=value)
    assert resolve("fleet_timeout", 3) == (3.0, "explicit")
    assert _scoped("fleet_timeout", 3) == 3.0


def test_fleet_secret_and_token_file_types():
    for build in (lambda v: resolve("fleet_secret", v),
                  lambda v: engine(fleet_secret=v)):
        with pytest.raises(TypeError):
            build(5)
        with pytest.raises(ValueError):
            build("")
    for build in (lambda v: resolve("gateway_token_file", v),
                  lambda v: engine(gateway_token_file=v)):
        with pytest.raises(TypeError):
            build(5)
        with pytest.raises(ValueError):
            build("  ")
    assert _scoped("gateway_token_file", os.path.join("etc", "tk")) == \
        os.path.join("etc", "tk")


# -- non-finite fleet_timeout never reaches sock.settimeout() ------------------


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf")])
def test_non_finite_fleet_timeout_rejected_by_check(value):
    with pytest.raises(ValueError):
        engine(fleet_timeout=value)
    with pytest.raises(ValueError):
        resolve("fleet_timeout", value)


def test_fleet_timeout_env_disable_stays_and_non_finite_is_ignored(
        monkeypatch):
    for text in ("0", "-1", "-0.0"):  # the documented explicit disable
        monkeypatch.setenv("REPRO_FLEET_TIMEOUT", text)
        assert resolve("fleet_timeout") == (None, "env")
    for text in ("nan", "inf", "+Infinity", "1e999"):
        monkeypatch.setenv("REPRO_FLEET_TIMEOUT", text)
        assert resolve("fleet_timeout") == (None, "default")


# -- describe_policy() explains a bad environment instead of raising -----------


@pytest.mark.parametrize("name", sorted(
    name for name, knob in KNOBS.items() if knob.strict_env))
def test_describe_policy_reports_invalid_address_export(monkeypatch, name):
    clean_keys = set(describe_policy())
    monkeypatch.setenv(KNOBS[name].env_var, "nonsense")
    snapshot = describe_policy()
    assert snapshot[name] is None
    assert snapshot[f"{name}_source"] == "env (invalid)"
    assert "nonsense" in snapshot[f"{name}_error"]
    assert set(snapshot) == clean_keys | {f"{name}_error"}
    with pytest.raises(ConfigurationError):  # dispatch stays loud
        resolve(name)
    with engine(**{name: "h:1"}):  # a higher layer still wins
        assert describe_policy()[f"{name}_source"] == "context"


def test_engine_rejects_unknown_keywords():
    with pytest.raises(TypeError):
        engine(warp_factor=9)
    with pytest.raises(TypeError):
        engine("rpc")  # 7.0: keywords only, no positional name
