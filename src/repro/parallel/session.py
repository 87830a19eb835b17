"""Client-side member sessions for the ``rpc`` executor.

The executor ships a member's snapshot to its ring-assigned worker
*once*, on the first ``run`` request that finds no pin there; every
later pass sends only the task's verb and arguments and folds the
returned :class:`~repro.api.store.StoreStatePatch` (or, for a mutating
pass, the returned snapshot) into the caller-held store.  That only
stays correct if a stale pin is never silently reused, so this module
keeps the client's books:

* a :class:`MemberSession` per live member store, holding the wire key
  the worker caches the snapshot under, a monotone **generation**
  (bumped whenever the pinned copy can no longer be trusted), and the
  set of workers currently holding a pin of that generation;

* a **fingerprint** of everything a member pass can change
  (:func:`store_fingerprint`): the device state a read-only pass
  advances (:class:`~repro.device.sero.DeviceStatePatch`: RNG,
  counters, mutation epoch, cost account, sled), the heated-line
  registry, the bad/fragile block sets and the façade's instruction
  tick.  Any client-side mutation between passes — a direct ``seal``,
  a migration, an attack helper poking the medium — changes the
  fingerprint, which forces a re-pin instead of a wrong result.

The invariant the executor maintains: after a successful pinned pass
*and* fold, the worker's pinned copy and the client's store are
state-equivalent (the byte-identity contract of the patch transport),
so the recorded fingerprint is simply re-captured from the client
store.  On any failure mid-pass the executor calls
:func:`invalidate`, which bumps the generation — the worker copy may
have advanced without a client fold and must never serve again.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "MemberSession",
    "invalidate",
    "session_for",
    "store_fingerprint",
]


# ---------------------------------------------------------------------------
# Fingerprints


def _device_fingerprint(device: Any) -> Tuple:
    return (
        device.state_patch(),
        tuple(sorted(device._lines)),
        tuple(sorted(device.bad_blocks)),
        tuple(sorted(device.fragile_blocks)),
    )


def store_fingerprint(store: Any) -> Tuple:
    """Cheap equality token over everything a member pass can change.

    Compared with ``==`` (the RNG state is a nested dict of ints), not
    hashed.  Two captures are equal iff no mutating *or* read-path
    operation (reads advance the RNG, the counters, the cost account
    and the sled) touched the store in between — exactly the condition
    under which a worker-pinned snapshot is still this store.
    """
    archive = store.archive_device
    return (
        _device_fingerprint(store.device),
        _device_fingerprint(archive) if archive is not None else None,
        store._tick,
    )


# ---------------------------------------------------------------------------
# The registry


class MemberSession:
    """The client's book entry for one pinnable member store."""

    __slots__ = ("key", "generation", "fingerprint", "pins")

    def __init__(self, key: Tuple[str, int]) -> None:
        self.key = key
        self.generation = 0
        self.fingerprint: Optional[Tuple] = None
        #: worker address -> generation pinned there
        self.pins: Dict[str, int] = {}

    def pin_current(self, addr: str) -> bool:
        """Does ``addr`` hold a pin of the current generation?"""
        return self.pins.get(addr) == self.generation

    def invalidate(self) -> None:
        """The pinned copies can no longer be trusted: bump the
        generation so every worker's next ``run`` request misses."""
        self.generation += 1
        self.pins.clear()
        self.fingerprint = None


#: Distinguishes this client process on shared workers (two clients
#: pinning members on one worker must never collide).
_CLIENT_TOKEN = f"{os.getpid():d}-{os.urandom(6).hex()}"

#: Keyed by the store itself and held weakly, so a collected store's
#: entry goes with it.  ``TamperEvidentStore`` defines no ``__eq__``:
#: it hashes by identity.
_SESSIONS: "weakref.WeakKeyDictionary[Any, MemberSession]" = \
    weakref.WeakKeyDictionary()
_SESSIONS_LOCK = threading.Lock()
_KEY_COUNTER = itertools.count(1)


def session_for(store: Any) -> MemberSession:
    """The (one) session record for ``store``, created on first use."""
    with _SESSIONS_LOCK:
        record = _SESSIONS.get(store)
        if record is None:
            record = MemberSession((_CLIENT_TOKEN, next(_KEY_COUNTER)))
            _SESSIONS[store] = record
        return record


def invalidate(store: Any) -> None:
    """Force the next pinned pass over ``store`` to re-pin."""
    with _SESSIONS_LOCK:
        record = _SESSIONS.get(store)
    if record is not None:
        record.invalidate()
