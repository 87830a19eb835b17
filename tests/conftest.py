"""Shared fixtures for the test suite."""

from __future__ import annotations

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
    """Addresses of two loopback worker daemons: where a test runs the
    cross-process (``rpc``) twin of a serial rack."""
    from repro.parallel import close_connection_pools, spawn_local_worker

    spawned = [spawn_local_worker() for _ in range(2)]
    try:
        yield tuple(worker.address for worker in spawned)
    finally:
        for worker in spawned:
            worker.stop()
        close_connection_pools()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running simulation tests")
