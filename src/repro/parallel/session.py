"""Client-side member sessions for the ``rpc`` executor.

The executor ships a member's snapshot to its ring-assigned worker
*once* (``pin``); every later pass sends only a small ``run_pinned``
task descriptor and folds the returned
:class:`~repro.api.store.StoreStatePatch` (or, for a mutating pass,
the returned snapshot) into the caller-held store.  That only stays
correct if a stale pin is never silently reused, so this module keeps
the client's books:

* a :class:`MemberSession` per live member store, holding the wire key
  the worker caches the snapshot under, a monotone **generation**
  (bumped whenever the pinned copy can no longer be trusted), and the
  set of workers currently holding a pin of that generation;

* a **fingerprint** of everything a member pass can change
  (:func:`store_fingerprint`): the medium's mutation epoch and
  operation counters, the live RNG state, the cost account, the sled
  position, the heated-line registry, the bad/fragile block sets and
  the façade's instruction tick.  Any client-side mutation between
  passes — a direct ``seal``, a migration, an attack helper poking the
  medium — changes the fingerprint, which forces a re-pin instead of a
  wrong result.

The invariant the executor maintains: after a successful pinned pass
*and* fold, the worker's pinned copy and the client's store are
state-equivalent (the byte-identity contract of the patch transport),
so the recorded fingerprint is simply re-captured from the client
store.  On any failure mid-pass the executor calls
:func:`invalidate`, which bumps the generation — the worker copy may
have advanced without a client fold and must never serve again.

Tasks cross the wire with the member store replaced by the picklable
:class:`PinnedStoreRef` placeholder; the worker substitutes its pinned
copy (:func:`bind_pinned`) before running the task.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import weakref
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "MemberSession",
    "PinnedStoreRef",
    "bind_pinned",
    "invalidate",
    "session_for",
    "split_task",
    "store_fingerprint",
]


class PinnedStoreRef:
    """Placeholder marking where a member store sat in a task's
    arguments; the worker swaps in its pinned copy."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<pinned member store>"


_REF = PinnedStoreRef()


def _is_store(obj: Any) -> bool:
    # sys.modules, not an import: a task that closes over a store can
    # only exist if the store module is already loaded, and checking
    # any other object must not drag the whole api layer in.
    mod = sys.modules.get("repro.api.store")
    return mod is not None and isinstance(obj, mod.TamperEvidentStore)


def split_task(task: Any) -> Optional[Tuple[Any, Any]]:
    """``(stripped_task, store)`` when ``task`` is a partial closing
    over exactly one member store, else None — not a member task, which
    the ``rpc`` executor refuses with ``TypeError`` before dialling.

    The stripped task is the same callable with the store replaced by
    the :class:`PinnedStoreRef` placeholder — a few hundred bytes on
    the wire instead of the snapshot.
    """
    fn = getattr(task, "func", None)
    args = getattr(task, "args", None)
    kwargs = getattr(task, "keywords", None)
    if fn is None or args is None or kwargs is None:
        return None
    arg_hits = [i for i, a in enumerate(args) if _is_store(a)]
    key_hits = [k for k, v in kwargs.items() if _is_store(v)]
    if len(arg_hits) + len(key_hits) != 1:
        return None
    if arg_hits:
        store = args[arg_hits[0]]
        args = tuple(_REF if i == arg_hits[0] else a
                     for i, a in enumerate(args))
        kwargs = dict(kwargs)
    else:
        store = kwargs[key_hits[0]]
        kwargs = dict(kwargs)
        kwargs[key_hits[0]] = _REF
    return functools.partial(fn, *args, **kwargs), store


def bind_pinned(task: Any, store: Any) -> Any:
    """Worker side of :func:`split_task`: substitute the pinned store
    back where the placeholder travels."""
    args = tuple(store if isinstance(a, PinnedStoreRef) else a
                 for a in task.args)
    kwargs = {key: store if isinstance(value, PinnedStoreRef) else value
              for key, value in task.keywords.items()}
    return functools.partial(task.func, *args, **kwargs)


# ---------------------------------------------------------------------------
# Fingerprints


def _device_fingerprint(device: Any) -> Tuple:
    medium = device.medium
    return (
        medium.mutation_epoch,
        tuple(sorted(medium.counters.items())),
        medium._rng.bit_generator.state,
        device.account.elapsed,
        device.scanner._x,
        device.scanner._y,
        device.scanner._last_block,
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

    __slots__ = ("key", "ref", "generation", "fingerprint", "pins",
                 "__weakref__")

    def __init__(self, key: Tuple[str, int], store: Any) -> None:
        self.key = key
        self.ref = weakref.ref(store)
        self.generation = 0
        self.fingerprint: Optional[Tuple] = None
        #: worker address -> generation pinned there
        self.pins: Dict[str, int] = {}

    def pin_current(self, addr: str) -> bool:
        """Does ``addr`` hold a pin of the current generation?"""
        return self.pins.get(addr) == self.generation

    def invalidate(self) -> None:
        """The pinned copies can no longer be trusted: bump the
        generation so every worker's next ``run_pinned`` misses."""
        self.generation += 1
        self.pins.clear()
        self.fingerprint = None


#: Distinguishes this client process on shared workers (two clients
#: pinning members on one worker must never collide).
_CLIENT_TOKEN = f"{os.getpid():d}-{os.urandom(6).hex()}"

_SESSIONS: Dict[int, MemberSession] = {}
#: Reentrant: registering a finalizer inside :func:`session_for` can
#: allocate, allocation can trigger a GC cycle, and that cycle can run
#: a *previous* store's :func:`_forget` finalizer on this very thread
#: while the lock is already held — a plain Lock deadlocks there.
_SESSIONS_LOCK = threading.RLock()
_KEY_COUNTER = itertools.count(1)


def _forget(ident: int, record: MemberSession) -> None:
    with _SESSIONS_LOCK:
        if _SESSIONS.get(ident) is record:
            del _SESSIONS[ident]


def session_for(store: Any) -> MemberSession:
    """The (one) session record for ``store``, created on first use."""
    ident = id(store)
    with _SESSIONS_LOCK:
        record = _SESSIONS.get(ident)
        if record is not None and record.ref() is store:
            return record
        record = MemberSession((_CLIENT_TOKEN, next(_KEY_COUNTER)), store)
        _SESSIONS[ident] = record
        weakref.finalize(store, _forget, ident, record)
        return record


def invalidate(store: Any) -> None:
    """Force the next pinned pass over ``store`` to re-pin."""
    with _SESSIONS_LOCK:
        record = _SESSIONS.get(id(store))
    if record is not None and record.ref() is store:
        record.invalidate()
