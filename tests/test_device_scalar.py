"""The device-level suites once more, on the scalar reference engine.

``test_device_sero.py`` and ``test_device_shred.py`` take their device
from the ``small_device`` fixture.  This module re-collects their tests
with that fixture overridden by a ``DeviceConfig(span_engine=False)``
device, so the paper's per-dot protocol meets every device-level
assertion inside tier-1 (before 7.0 that was a separate
``REPRO_SPAN_ENGINE=0`` CI leg).  The span runs keep their test ids.
"""

import pytest

from repro.device.sero import DeviceConfig, SERODevice
from test_device_sero import *  # noqa: F401,F403 — re-collected here
from test_device_shred import *  # noqa: F401,F403 — re-collected here


@pytest.fixture
def small_device() -> SERODevice:
    """The conftest device, on the scalar engine."""
    return SERODevice.create(64, config=DeviceConfig(span_engine=False))


def test_suite_runs_on_the_scalar_engine(small_device):
    assert small_device.config.span_engine is False
