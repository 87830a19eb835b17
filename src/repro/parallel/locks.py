"""Shard-grained locking for fleet façades.

The determinism contract of the paper's protocol is *per member*: each
member store owns its RNG stream, counters, and medium state, so two
operations touching disjoint members share no mutable state and have
no reason to queue behind each other.  :class:`MemberLockSet` encodes
that contract as a locking discipline:

* one reentrant lock per member, multi-member footprints always
  acquired in **ascending member-index order** — two ``seal_many``
  calls whose batches cover members ``{0, 2}`` and ``{2, 0}`` both
  sort to ``0 < 2``, so reverse-footprint races cannot deadlock;
* a fleet-wide **exclusive mode** for whole-fleet passes (audit,
  format, growth, rebalance), implemented as a writer-preferring
  read/write gate: shard operations hold the gate *shared*, exclusive
  passes hold it alone — no shard operation can overlap an exclusive
  pass in either direction, and a waiting exclusive pass blocks new
  shard entrants so audits cannot starve under tenant load;
* a ``serialize`` switch that turns **every** acquisition into the
  exclusive mode — the forced single-lock baseline the gateway bench
  measures its concurrency floor against.

Lock order is always *gate before member locks*, and member locks are
only ever held either one at a time (the fleet's lock-step holder walk)
or as one ascending batch, so the discipline is deadlock-free by
construction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Tuple


class MemberLockSet:
    """Per-member reentrant locks plus a fleet-wide exclusive mode.

    Args:
        count: number of members (one lock each).
        serialize: force every acquisition — shard or exclusive — into
            the exclusive whole-fleet mode.  This restores the single
            global lock the gateway shipped with, and exists so the
            shard-parallel path can be benchmarked against it.
    """

    def __init__(self, count: int, *, serialize: bool = False) -> None:
        if count < 1:
            raise ValueError("a MemberLockSet needs at least one member")
        self._locks: List[threading.RLock] = [
            threading.RLock() for _ in range(count)]
        self._serialize = bool(serialize)
        # writer-preferring read/write gate
        self._gate = threading.Condition()
        self._shared = 0
        self._writer: int = 0          # thread ident holding exclusive
        self._writer_depth = 0         # reentrant exclusive entries
        self._writers_waiting = 0

    @property
    def count(self) -> int:
        return len(self._locks)

    @property
    def serialize(self) -> bool:
        return self._serialize

    # -- the fleet gate -----------------------------------------------------

    def _acquire_gate_shared(self) -> None:
        me = threading.get_ident()
        with self._gate:
            if self._writer == me:
                # the exclusive holder may run shard-grained helpers
                self._writer_depth += 1
                return
            while self._writer or self._writers_waiting:
                self._gate.wait()
            self._shared += 1

    def _release_gate_shared(self) -> None:
        me = threading.get_ident()
        with self._gate:
            if self._writer == me:
                self._writer_depth -= 1
                return
            self._shared -= 1
            if self._shared == 0:
                self._gate.notify_all()

    def _acquire_gate_exclusive(self) -> None:
        me = threading.get_ident()
        with self._gate:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer or self._shared:
                    self._gate.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def _release_gate_exclusive(self) -> None:
        with self._gate:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = 0
                self._gate.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the fleet gate shared: excluded by (and excluding)
        exclusive passes, concurrent with other shard operations.
        Member locks may only be taken while the gate is held; in
        ``serialize`` mode this *is* the exclusive mode."""
        if self._serialize:
            self._acquire_gate_exclusive()
            try:
                yield
            finally:
                self._release_gate_exclusive()
            return
        self._acquire_gate_shared()
        try:
            yield
        finally:
            self._release_gate_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Whole-fleet exclusive mode: no shard operation overlaps.
        Reentrant within the holding thread."""
        self._acquire_gate_exclusive()
        try:
            yield
        finally:
            self._release_gate_exclusive()

    # -- member locks (held under the shared gate) --------------------------

    def acquire_member(self, index: int) -> None:
        """Take one member's lock (caller holds the gate).  Use either
        one lock at a time (lock-step walks) or through
        :meth:`members` — never hand-roll a descending multi-acquire."""
        self._locks[index].acquire()

    def release_member(self, index: int) -> None:
        self._locks[index].release()

    def acquire_ascending(self, indices: Iterable[int]) -> Tuple[int, ...]:
        """Take a footprint's member locks in ascending index order;
        returns the acquisition order for the matching release."""
        order = tuple(sorted(set(indices)))
        for index in order:
            self._locks[index].acquire()
        return order

    def release_descending(self, order: Tuple[int, ...]) -> None:
        for index in reversed(order):
            self._locks[index].release()

    @contextmanager
    def members(self, indices: Iterable[int]) -> Iterator[None]:
        """Shared gate + the footprint's member locks (ascending)."""
        with self.shared():
            order = self.acquire_ascending(indices)
            try:
                yield
            finally:
                self.release_descending(order)

    @contextmanager
    def member(self, index: int) -> Iterator[None]:
        """Shared gate + one member's lock."""
        with self.members((index,)):
            yield

    # -- growth -------------------------------------------------------------

    def grow(self) -> int:
        """Add one member lock; call only while holding
        :meth:`exclusive` (the same discipline as mutating the member
        list itself).  Returns the new member index."""
        if self._writer != threading.get_ident():
            raise RuntimeError(
                "MemberLockSet.grow() requires the exclusive mode "
                "(grow the lock set where you grow the member list)")
        self._locks.append(threading.RLock())
        return len(self._locks) - 1
