"""Shard-parallel fleet locking: correctness under real threads.

Four layers:

* **MemberLockSet discipline** — exclusive mode excludes shard
  holders (and vice versa), footprints acquire in ascending member
  order, ``grow()`` is exclusive-only;
* **deadlock freedom** — reverse-footprint ``seal_many`` batches
  ({0, 2} racing {2, 0}) and admin passes racing shard traffic must
  all join within a timeout;
* **byte-identity through FleetStore** — N threads hammering
  member-disjoint namespaces leave every member at the identical
  :func:`~repro.parallel.session.store_fingerprint` as a twin that
  runs the same per-member sequences one after another, because the
  protocol's determinism contract is per member;
* **byte-identity through the live gateway** — the same property
  with real sockets and ``ThreadingHTTPServer`` threads, plus an
  overlapping-namespace hammer whose invariant is weaker (every
  sealed object verifies INTACT, the audit is clean) because
  same-member interleaving legitimately reorders the RNG stream.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import pytest

from repro.api.fleet import FleetStore
from repro.api.store import StoreConfig
from repro.device.sero import VerifyStatus
from repro.gateway import GatewayApp, GatewayClient, GatewayServer, TokenTable, confine
from repro.parallel import MemberLockSet
from repro.parallel.session import store_fingerprint

CONFIG = StoreConfig(total_blocks=256, audit_log=True)
SPEC = "root-token=admin;acme-rw=acme:rw"
JOIN_TIMEOUT = 30.0


def _run_threads(targets) -> None:
    """Start, join with a timeout, and re-raise worker exceptions —
    a hung thread is a failed (deadlocked) test, not a hung suite."""
    errors: List[BaseException] = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn), daemon=True)
               for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    assert not any(t.is_alive() for t in threads), \
        "worker threads did not finish: deadlock"
    if errors:
        raise errors[0]


def _pin_paths(fleet: FleetStore, per_member: int,
               prefix: str = "/obj") -> Dict[int, List[str]]:
    """Probe the hash ring for ``per_member`` paths routed to each
    member, so concurrent threads can own disjoint member footprints."""
    pinned: Dict[int, List[str]] = {i: [] for i in range(len(fleet.members))}
    i = 0
    while any(len(paths) < per_member for paths in pinned.values()):
        path = f"{prefix}/{i}"
        member = fleet.route(path)
        if len(pinned[member]) < per_member:
            pinned[member].append(path)
        i += 1
        assert i < 10_000, "ring never covered every member"
    return pinned


# -- MemberLockSet discipline ---------------------------------------------------


def test_exclusive_excludes_member_holders():
    locks = MemberLockSet(3)
    order: List[str] = []
    entered = threading.Event()
    release = threading.Event()

    def shard():
        with locks.member(1):
            order.append("shard-in")
            entered.set()
            release.wait(JOIN_TIMEOUT)
            order.append("shard-out")

    def admin():
        entered.wait(JOIN_TIMEOUT)
        with locks.exclusive():
            order.append("admin")

    t1 = threading.Thread(target=shard, daemon=True)
    t2 = threading.Thread(target=admin, daemon=True)
    t1.start()
    t2.start()
    entered.wait(JOIN_TIMEOUT)
    time.sleep(0.05)  # give the admin thread a chance to (wrongly) run
    assert order == ["shard-in"]  # exclusive waits for the shard op
    release.set()
    t1.join(JOIN_TIMEOUT)
    t2.join(JOIN_TIMEOUT)
    assert order == ["shard-in", "shard-out", "admin"]


def test_waiting_exclusive_blocks_new_shard_entrants():
    locks = MemberLockSet(2)
    in_shard = threading.Event()
    release_shard = threading.Event()
    admin_done = threading.Event()
    late_ran = threading.Event()

    def shard():
        with locks.shared():
            in_shard.set()
            release_shard.wait(JOIN_TIMEOUT)

    def admin():
        in_shard.wait(JOIN_TIMEOUT)
        with locks.exclusive():
            admin_done.set()

    def late_shard():
        in_shard.wait(JOIN_TIMEOUT)
        time.sleep(0.05)  # let the admin thread start waiting first
        with locks.shared():
            late_ran.set()
        # writer preference: by the time a late reader gets in, the
        # waiting exclusive pass must already have run
        assert admin_done.is_set()

    threads = [threading.Thread(target=fn, daemon=True)
               for fn in (shard, admin, late_shard)]
    for t in threads:
        t.start()
    in_shard.wait(JOIN_TIMEOUT)
    time.sleep(0.1)
    assert not admin_done.is_set() and not late_ran.is_set()
    release_shard.set()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    assert admin_done.is_set() and late_ran.is_set()


def test_ascending_acquisition_order():
    locks = MemberLockSet(5)
    with locks.shared():
        order = locks.acquire_ascending([3, 0, 4, 0, 3])
        assert order == (0, 3, 4)
        locks.release_descending(order)


def test_grow_requires_exclusive_mode():
    locks = MemberLockSet(2)
    with pytest.raises(RuntimeError):
        locks.grow()
    with locks.exclusive():
        assert locks.grow() == 2
    assert locks.count == 3


def test_exclusive_is_reentrant_and_admits_own_shard_helpers():
    locks = MemberLockSet(2)
    with locks.exclusive():
        with locks.exclusive():       # audit calling format, say
            with locks.member(1):     # and a shard-grained helper
                pass
    # fully released: another thread can take it immediately
    ok = threading.Event()

    def other():
        with locks.exclusive():
            ok.set()

    _run_threads([other])
    assert ok.is_set()


# -- deadlock freedom -----------------------------------------------------------


def test_reverse_footprint_seal_many_does_not_deadlock():
    for _ in range(5):  # racing repeatedly to actually collide
        fleet = FleetStore.create(3, CONFIG)
        pinned = _pin_paths(fleet, 2)
        batch_a = [pinned[0][0], pinned[2][0]]   # footprint {0, 2}
        batch_b = [pinned[2][1], pinned[0][1]]   # footprint {2, 0}
        for path in batch_a + batch_b:
            fleet.put(path, b"x" * 64, make_parents=True)
        start = threading.Barrier(2)

        def seal(batch, barrier=start, target=fleet):
            def run():
                barrier.wait(JOIN_TIMEOUT)
                target.seal_many(batch)
            return run

        _run_threads([seal(batch_a), seal(batch_b)])
        for path in batch_a + batch_b:
            assert fleet.verify(path).status is VerifyStatus.INTACT


def test_admin_passes_race_shard_traffic_without_deadlock():
    fleet = FleetStore.create(3, CONFIG)
    pinned = _pin_paths(fleet, 4)

    def tenant(member: int):
        def run():
            for path in pinned[member]:
                fleet.put(path, bytes([member + 1]) * 48, make_parents=True)
                fleet.seal(path)
                fleet.verify(path)
        return run

    def admin():
        for _ in range(3):
            fleet.audit()

    _run_threads([tenant(0), tenant(1), tenant(2), admin])
    report = fleet.audit(deep=True)
    assert all(r.status is VerifyStatus.INTACT for r in report.reports)


# -- byte-identity through FleetStore -------------------------------------------


def _hammer_member(fleet: FleetStore, paths: List[str],
                   payload: bytes) -> None:
    for path in paths:
        fleet.put(path, payload, make_parents=True)
    fleet.seal_many(paths)
    for path in paths:
        assert fleet.get(path) == payload
        report = fleet.verify(path)
        assert report.status is VerifyStatus.INTACT


def test_disjoint_member_hammer_matches_serialized_twin():
    fleet = FleetStore.create(3, CONFIG)
    twin = FleetStore.create(3, CONFIG)
    pinned = _pin_paths(fleet, 3)
    payloads = {m: bytes([m + 1]) * 96 for m in pinned}

    _run_threads([
        (lambda m=m: _hammer_member(fleet, pinned[m], payloads[m]))
        for m in pinned])
    for m in pinned:  # the twin runs the same per-member sequences serially
        _hammer_member(twin, pinned[m], payloads[m])

    assert [store_fingerprint(s) for s in fleet.members] == \
        [store_fingerprint(s) for s in twin.members]


# -- byte-identity through the live gateway -------------------------------------


@pytest.fixture()
def gateway_stack():
    fleet = FleetStore.create(3, CONFIG)
    twin = FleetStore.create(3, CONFIG)
    app = GatewayApp(fleet, TokenTable.from_spec(SPEC))
    with GatewayServer(app) as server:
        yield server, fleet, twin


def test_gateway_disjoint_hammer_matches_serialized_twin(gateway_stack):
    server, fleet, twin = gateway_stack
    # pin tenant-relative names so each thread owns one member
    pinned: Dict[int, List[str]] = {i: [] for i in range(3)}
    i = 0
    while any(len(v) < 3 for v in pinned.values()):
        name = f"/ledger/{i}"
        member = fleet.route(confine("acme", name))
        if len(pinned[member]) < 3:
            pinned[member].append(name)
        i += 1

    def worker(member: int):
        def run():
            client = GatewayClient(server.address, "acme-rw",
                                   tenant="acme")
            with client:
                payload = bytes([member + 1]) * 80
                for name in pinned[member]:
                    client.put(name, payload)
                client.seal_many(pinned[member], timestamp=99)
                for name in pinned[member]:
                    assert client.get(name) == payload
        return run

    _run_threads([worker(m) for m in pinned])
    for m in pinned:  # replay each thread's exact op sequence serially
        payload = bytes([m + 1]) * 80
        for name in pinned[m]:
            twin.put(confine("acme", name), payload, make_parents=True)
        twin.seal_many([confine("acme", n) for n in pinned[m]],
                       timestamp=99)
        for name in pinned[m]:  # reads advance device state too
            assert twin.get(confine("acme", name)) == payload

    assert [store_fingerprint(s) for s in fleet.members] == \
        [store_fingerprint(s) for s in twin.members]


def test_gateway_overlapping_hammer_keeps_invariants(gateway_stack):
    server, fleet, _twin = gateway_stack
    names = [f"/shared/{i}" for i in range(12)]

    def worker(offset: int):
        def run():
            client = GatewayClient(server.address, "acme-rw",
                                   tenant="acme")
            with client:
                for i in range(offset, len(names), 3):
                    client.put(names[i], b"v" * (40 + i))
                    client.seal(names[i])
        return run

    _run_threads([worker(0), worker(1), worker(2)])
    admin = GatewayClient(server.address, "root-token")
    with admin:
        report = admin.audit(deep=True)
    assert all(r.status is VerifyStatus.INTACT for r in report.reports)
    client = GatewayClient(server.address, "acme-rw", tenant="acme")
    with client:
        for i, name in enumerate(names):
            verdict = client.verify(name)
            assert verdict.status is VerifyStatus.INTACT
            assert client.get(name) == b"v" * (40 + i)


# -- typed member verdicts and the index feed on twin fleets --------------------


def test_member_records_identical_across_lock_modes():
    """A fleet audit exposes the same typed per-member verdict
    records on twin fleets fed the same operations, with member-local
    (unprefixed) labels."""
    fleets = [FleetStore.create(3, CONFIG) for _ in range(2)]
    pinned = _pin_paths(fleets[0], 2)
    for fleet in fleets:
        for member, paths in pinned.items():
            for path in paths:
                fleet.put(path, bytes([member + 1]) * 40,
                          make_parents=True)
        fleet.seal_many([p for paths in pinned.values()
                         for p in paths])

    report, twin_report = (fleet.audit() for fleet in fleets)
    assert report == twin_report
    records = report.member_records
    assert {r.member for r in records} == set(pinned)
    for record in records:
        # member-local: the merged "m<i>:" prefix never leaks in
        assert not record.report.label.startswith(
            f"m{record.member}:")
        assert record.report.intact


def test_index_feed_identical_across_lock_modes():
    """The evidence index sees the same journal on twin fleets: same
    ops in, byte-identical canonical state out."""
    from repro.search import EvidenceIndex

    states = []
    for _twin in range(2):
        fleet = FleetStore.create(3, CONFIG)
        index = EvidenceIndex()
        fleet.attach_indexer(index)
        pinned = _pin_paths(fleet, 2)
        for member, paths in pinned.items():
            for path in paths:
                fleet.put(path, bytes([member + 1]) * 40,
                          make_parents=True)
        fleet.seal_many([p for paths in pinned.values()
                         for p in paths])
        fleet.audit()
        index.verify_journal()
        assert index.rebuild().canonical_bytes() == \
            index.canonical_bytes()
        states.append(index.canonical_bytes())
    assert states[0] == states[1]
