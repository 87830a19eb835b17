"""Outside-in span recorder for the stack benchmark.

The benchmark may not edit ``src/``, so spans are recorded by
wrappers this module sets on class or module attributes, looked up by
dotted name, and restores afterwards.  A name that no longer resolves
is reported in :attr:`Tracer.missing` instead of raising, so a PR that
renames or deletes a callable loses that span, not the benchmark.

Spans nest on a per-thread stack.  Each finished span adds to its
name's ``[calls, total seconds, self seconds]``, where self time is
the span's duration minus the part of that interval its child spans
cover; the aggregates stay in memory until :meth:`Tracer.results`.
Only the aggregates are kept, not one record per span: the hot
targets (ECC, CRC, medium spans) fire several hundred thousand times
in a run.

A target may carry an ``op`` tag, inherited by every span below it on
the same thread, and a ``hook`` that turns the call's arguments and
result into counters keyed by that tag (for example blocks read under
``get``).  Hook time lands in the parent span's self time; a hook
that no longer fits its callable's signature is counted under
``hook_errors`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: ``hook(counts, op, args, kwargs, result)`` adds to ``counts``.
Hook = Callable[[Dict[Any, float], Optional[str], tuple, dict, Any], None]


class Target(NamedTuple):
    """One callable to wrap: the span it records and where it lives."""

    span: str
    path: str
    op: Optional[str] = None
    hook: Optional[Hook] = None


def resolve(path: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` for a dotted name, or None when any part
    of it is missing.  The longest importable prefix is the module;
    the rest is an attribute chain (class, then method)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


class _ThreadState:
    """One thread's open-span stack and finished-span aggregates."""

    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [child seconds, op tag]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[Any, float] = {}


class Tracer:
    """Installs span wrappers, aggregates spans, restores originals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        #: Dotted names that did not resolve at :meth:`install`.
        self.missing: List[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` recording one ``target.span`` span per call."""
        name, op, hook = target.span, target.op, target.hook
        state_of, clock = self._state, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0, op if op is not None
                     else (stack[-1][1] if stack else None)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # runs on a raise too: the stack unwinds and the
                # parent still sees this child's time
                duration = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                agg = state.spans.get(name)
                if agg is None:
                    agg = state.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
            if hook is not None:
                try:
                    hook(state.counts, frame[1], args, kwargs, result)
                except (LookupError, TypeError, AttributeError):
                    # the callable's signature moved on: lose the
                    # counter, like a missing name, not the run
                    state.counts["hook_errors"] = \
                        state.counts.get("hook_errors", 0) + 1
            return result

        return traced

    def install(self, targets: List[Target]) -> None:
        """Wrap every resolvable target (class attributes keep their
        ``staticmethod``/``classmethod`` kind)."""
        for target in targets:
            found = resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr = found
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, (staticmethod, classmethod)):
                wrapped = type(static)(self.wrap(target, static.__func__))
            elif callable(static):
                wrapped = self.wrap(target, static)
            else:
                self.missing.append(target.path)
                continue
            # an inherited attribute is shadowed on the subclass, so
            # restoring means deleting the shadow, not re-setting it
            own = attr in vars(owner)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, static, own))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, static, own = self._patched.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()

    def results(self) -> Tuple[Dict[str, List[float]], Dict[Any, float]]:
        """``(spans, counts)`` merged over every thread that recorded:
        ``spans[name] = [calls, total_s, self_s]``.  On one thread the
        self times add up to the time inside its parentless spans."""
        spans: Dict[str, List[float]] = {}
        counts: Dict[Any, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, self_s) in state.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
        return spans, counts
