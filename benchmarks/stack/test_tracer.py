"""Tests of the span recorder.  Run by path (tier-1 ``testpaths`` is
``tests``)::

    python -m pytest -q benchmarks/stack/test_tracer.py

They need nothing from ``src/``: the traced callables live in
throw-away modules built here, and time is a hand-wound clock, so the
self-time arithmetic is checked to the digit.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import layer_metrics, layer_of  # noqa: E402
from tracer import Target, Tracer, resolve  # noqa: E402


class Clock:
    """A clock only the traced functions advance, one per thread so
    two threads cannot wind each other's time."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def work(self, seconds):
        self._local.now = self() + seconds


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def stack(clock):
    """Two modules: ``fx_lib`` (a layered little stack) and
    ``fx_user``, which imports one of its names by value."""
    lib = types.ModuleType("fx_lib")

    def leaf(seconds=1.0):
        clock.work(seconds)
        return "leaf"

    def checksum(data):
        clock.work(0.5)
        return len(data)

    class Base:
        def inherited(self):
            clock.work(0.25)
            return "base"

    class Store(Base):
        def outer(self):
            clock.work(2.0)
            lib.leaf()
            clock.work(3.0)
            lib.leaf(4.0)
            return "outer"

        def boom(self):
            clock.work(1.0)
            lib.leaf()
            raise ValueError("boom")

        @staticmethod
        def static(x):
            clock.work(0.125)
            return x + 1

    lib.leaf, lib.checksum, lib.Base, lib.Store = leaf, checksum, Base, Store

    user = types.ModuleType("fx_user")
    user.checksum = checksum  # from fx_lib import checksum

    def seal(data):
        clock.work(1.0)
        return user.checksum(data)

    user.seal = seal
    sys.modules["fx_lib"], sys.modules["fx_user"] = lib, user
    yield lib, user
    del sys.modules["fx_lib"], sys.modules["fx_user"]


def test_self_time_is_duration_minus_child_cover(stack, clock):
    lib, _user = stack
    with Tracer(clock) as tracer:
        tracer.install([Target("store.outer", "fx_lib.Store.outer"),
                        Target("device.leaf", "fx_lib.leaf")])
        assert lib.Store().outer() == "outer"
    spans, _counts = tracer.results()
    # outer runs 2 + 1 + 3 + 4 = 10 s, of which its two leaf children
    # cover 5 s; the leaves have no children
    assert spans["store.outer"] == [1, 10.0, 5.0]
    assert spans["device.leaf"] == [2, 5.0, 5.0]
    # the self times add up to the parentless span
    assert sum(agg[2] for agg in spans.values()) == 10.0


def test_stack_unwinds_when_a_wrapped_call_raises(stack, clock):
    lib, _user = stack
    with Tracer(clock) as tracer:
        tracer.install([Target("store.boom", "fx_lib.Store.boom"),
                        Target("store.outer", "fx_lib.Store.outer"),
                        Target("device.leaf", "fx_lib.leaf")])
        with pytest.raises(ValueError):
            lib.Store().boom()
        # the raise left no open frame: the next call is a root again
        lib.Store().outer()
    spans, _counts = tracer.results()
    assert spans["store.boom"] == [1, 2.0, 1.0]
    assert spans["store.outer"] == [1, 10.0, 5.0]
    assert spans["device.leaf"] == [3, 6.0, 6.0]


def test_two_threads_keep_separate_stacks(stack, clock):
    lib, _user = stack
    go = threading.Barrier(2)

    def client():
        go.wait(timeout=10)
        for _ in range(50):
            lib.Store().outer()

    with Tracer(clock) as tracer:
        tracer.install([Target("store.outer", "fx_lib.Store.outer"),
                        Target("device.leaf", "fx_lib.leaf")])
        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    spans, _counts = tracer.results()
    # a shared stack would nest one thread's outer under the other's
    assert spans["store.outer"] == [100, 1000.0, 500.0]
    assert spans["device.leaf"] == [200, 500.0, 500.0]


def test_missing_dotted_name_is_reported_not_raised(stack, clock):
    lib, _user = stack
    gone = ["fx_lib.Store.renamed", "fx_lib.Gone.method",
            "no_such_package.module.fn", "fx_lib"]
    assert all(resolve(path) is None for path in gone[:3])
    with Tracer(clock) as tracer:
        tracer.install([Target("x", path) for path in gone]
                       + [Target("device.leaf", "fx_lib.leaf")])
        lib.leaf()
    assert tracer.missing == gone
    spans, _counts = tracer.results()
    assert list(spans) == ["device.leaf"]


def test_originals_are_restored(stack, clock):
    lib, user = stack
    originals = {
        "outer": vars(lib.Store)["outer"],
        "static": vars(lib.Store)["static"],
        "inherited": vars(lib.Base)["inherited"],
        "leaf": lib.leaf,
        "checksum": user.checksum,
    }
    with Tracer(clock) as tracer:
        tracer.install([
            Target("store.outer", "fx_lib.Store.outer"),
            Target("store.static", "fx_lib.Store.static"),
            # found on Base, wrapped as a shadow on Store
            Target("store.inherited", "fx_lib.Store.inherited"),
            Target("device.leaf", "fx_lib.leaf"),
            Target("crypto.crc", "fx_user.checksum"),
        ])
        assert vars(lib.Store)["outer"] is not originals["outer"]
        assert "inherited" in vars(lib.Store)
        # a staticmethod stays one: no self is passed
        assert lib.Store.static(1) == 2 and lib.Store().static(1) == 2
        assert lib.Store().inherited() == "base"
    assert vars(lib.Store)["outer"] is originals["outer"]
    assert vars(lib.Store)["static"] is originals["static"]
    assert "inherited" not in vars(lib.Store)
    assert vars(lib.Base)["inherited"] is originals["inherited"]
    assert lib.leaf is originals["leaf"]
    assert user.checksum is originals["checksum"]
    tracer.restore()  # idempotent
    spans, _counts = tracer.results()
    assert spans["store.static"][0] == 2
    assert spans["store.inherited"] == [1, 0.25, 0.25]


def test_name_imported_by_value_is_patched_at_the_use_site(stack, clock):
    lib, user = stack
    with Tracer(clock) as tracer:
        tracer.install([Target("crypto.crc", "fx_user.checksum")])
        assert user.seal(b"abc") == 3
        lib.checksum(b"abc")  # the defining module was not touched
    spans, _counts = tracer.results()
    assert spans["crypto.crc"] == [1, 0.5, 0.5]


def test_hooks_count_under_the_inherited_op_tag(stack, clock):
    lib, _user = stack

    def count_leaf(counts, op, args, _kwargs, result):
        counts[("leaf", op)] = counts.get(("leaf", op), 0) + 1

    def misfit(counts, _op, args, _kwargs, _result):
        counts["never"] = args[7]  # the signature moved on

    with Tracer(clock) as tracer:
        tracer.install([
            Target("store.outer", "fx_lib.Store.outer", op="get"),
            Target("device.leaf", "fx_lib.leaf", hook=count_leaf),
            Target("crypto.crc", "fx_lib.checksum", hook=misfit),
        ])
        lib.Store().outer()
        lib.leaf()
        assert lib.checksum(b"abcd") == 4  # the call itself still works
    _spans, counts = tracer.results()
    assert counts == {("leaf", "get"): 2, ("leaf", None): 1,
                      "hook_errors": 1}


def test_a_span_belongs_to_its_longest_layer_prefix():
    assert layer_of("device.read_block") == "device"
    assert layer_of("device.ecc.decode") == "device.ecc"
    assert layer_of("api.fleet") == "api.fleet"
    assert layer_of("devices.read") is None


def test_a_handle_span_on_another_thread_is_counted_once():
    # 10 requests of 50 ms at the client; the server's handle spans
    # (on their own thread, so roots there) cover 8 ms of each, 5 ms
    # of which is the device's
    spans = {"gateway.client": [10, 0.5, 0.5],
             "gateway.handle": [10, 0.08, 0.03],
             "device.read_block": [40, 0.05, 0.05]}
    out = layer_metrics(spans, {}, ops=10, op_wall=0.5, user_bytes=0)
    # (client - handle) + handle's self: 42 + 3 ms a request
    assert out["gateway.self_ms_per_op"] == pytest.approx(45.0)
    assert out["gateway.http_overhead_ms"] == pytest.approx(42.0)
    assert out["device.self_ms_per_op"] == pytest.approx(5.0)
    # the column adds up to the request, so the ratio can be checked
    assert out["harness.self_over_op_wall"] == pytest.approx(1.0)
    in_process = layer_metrics({"device.read_block": [40, 0.05, 0.05]}, {},
                               ops=10, op_wall=0.1, user_bytes=0)
    assert in_process["gateway.self_ms_per_op"] == 0
    assert in_process["harness.self_over_op_wall"] == pytest.approx(0.5)
