"""The client-side clock: the operation log, and the host-speed
sentinel that steadies the compute-bound workloads' latencies.

Over HTTP an operation is mostly a kernel timer (the 40 ms delayed-ACK
stall), and its plain wall-clock median repeats within a few percent:
the gateway workloads report wall-clock time as measured.

In-process, an operation is all compute, and the benchmark host's
speed drifts: a vCPU does one fixed loop in 36 µs on a quiet hour,
flips between about 36 and 46 µs in stretches of 0.5–10 s on an
ordinary one, and reads 50–80 µs on a bad one.  Plain medians of the
in-process operations spread by 10–24 % over ten identical runs
(interquartile range ÷ median), whichever statistic is taken (median,
mean, trimmed mean, lower quartile) and at 20 s as at 10 s: more than
a bound may be.  So on those workloads (``Recorder(steady=True)``)
every operation is bracketed by the sentinel — the same fixed loop,
timed just before and just after — and its wall time is rescaled to
the speed at which the sentinel takes :data:`SENTINEL_REF_S`::

    steadied = wall * SENTINEL_REF_S / sentinel

which brought the spreads to 2–11 %.  No CPU clock is involved:
whichever thread or worker process computes while the client waits,
the whole wait scales.  The plain wall time is kept beside the
steadied one and printed with it.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, List, NamedTuple, Optional

import numpy as np

#: What the sentinel reads on the benchmark host on a quiet hour.  On
#: another host every steadied time scales by one constant.
SENTINEL_REF_S = 36e-6

_DATA = bytes(range(256)) * 32
_BITS = np.frombuffer(_DATA[:1024], dtype=np.uint8)


def _loop() -> float:
    t0 = time.perf_counter()
    zlib.crc32(_DATA)
    zlib.crc32(_DATA)
    np.unpackbits(_BITS).sum()
    x = 0
    for i in range(1500):
        x += i
    return time.perf_counter() - t0


def sentinel() -> float:
    """Seconds one fixed bytes + numpy + bytecode loop takes right
    now.  The loop runs twice and the second pass is the reading, so
    caches left cold by the operation before do not count."""
    _loop()
    return _loop()


class Op(NamedTuple):
    """One finished client operation."""

    kind: str
    seconds: float  # what the metrics use: steadied, or wall as it is
    wall: float     # as the clock read it
    ok: bool


class Recorder:
    """One client's operation log, in issue order."""

    def __init__(self, steady: bool = False) -> None:
        self.steady = steady
        self.ops: List[Op] = []
        self.errors: List[str] = []

    def call(self, kind: str, fn: Callable, *args,
             expect: Optional[Callable] = None, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one ``kind`` operation.  A
        raise, a refusal or an answer ``expect`` rejects counts as
        failed; the loop goes on."""
        before = sentinel() if self.steady else 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the load generator must keep going
            wall = time.perf_counter() - t0
            self.ops.append(Op(kind, wall, wall, False))
            self.errors.append(f"{kind}: {exc!r}")
            return None
        wall = time.perf_counter() - t0
        seconds = wall * 2.0 * SENTINEL_REF_S / (before + sentinel()) \
            if self.steady else wall
        ok = expect is None or bool(expect(result))
        self.ops.append(Op(kind, seconds, wall, ok))
        if not ok:
            self.errors.append(f"{kind}: wrong answer {result!r:.120}")
        return result
