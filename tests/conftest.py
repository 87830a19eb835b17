"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.device.sero import SERODevice
from repro.fs.lfs import FSConfig, SeroFS


@pytest.fixture
def small_device() -> SERODevice:
    """A 64-block device — enough for a couple of heated lines."""
    return SERODevice.create(64)


@pytest.fixture
def device() -> SERODevice:
    """A 256-block device for FS-level tests."""
    return SERODevice.create(256)


@pytest.fixture
def fs(device: SERODevice) -> SeroFS:
    """A freshly formatted file system on :func:`device`."""
    return SeroFS.format(device)


@pytest.fixture
def big_fs() -> SeroFS:
    """A roomier FS (1024 blocks) for aging/cleaner tests."""
    return SeroFS.format(SERODevice.create(1024))


@pytest.fixture(scope="module")
def workers():
    """Addresses of two loopback workers: where a test runs the
    cross-process (``rpc``) twin of a serial rack.  Two in-thread
    ``WorkerServer``s, or the daemons an exported ``REPRO_FLEET_HOSTS``
    names (so a CI step can point the suites at real ``serve``
    processes)."""
    from repro.api.policy import KNOBS
    from repro.parallel import close_connection_pools, parse_hosts
    from twin_racks import thread_worker

    exported = os.environ.get(KNOBS["fleet_hosts"].env_var, "").strip()
    with contextlib.ExitStack() as stack:
        stack.callback(close_connection_pools)
        if exported:
            yield parse_hosts(exported)
        else:
            yield tuple(stack.enter_context(thread_worker())[0]
                        for _ in range(2))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running simulation tests")
