"""The sharded fleet execution layer.

Two layers under test:

* **executors** (:mod:`repro.parallel`) — serial and rpc dispatch
  must produce byte-identical per-member results, both must be
  policy-selectable by name, and ``REPRO_FLEET_EXECUTOR`` must be read
  lazily at dispatch time;
* **fleet store** (:class:`repro.api.fleet.FleetStore`) — the fleet
  passes on top of the executors with one pass record, and the
  consistent-hash shard router: deterministic routing, bounded
  remapping under growth, and store-surface equivalence.

Plus the snapshot transport the rpc executor pins members with: the
compact :class:`~repro.medium.medium.PatternedMedium` pickle must
round-trip state *exactly* (arrays, RNG position, registries).  The
cross-process legs run on two loopback worker daemons
(``workers``).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
import repro.api as api
from twin_racks import (all_passes, fingerprints, object_rack,
                        sealed_device_rack)
from repro.api.fleet import FleetStore
from repro.api.policy import resolve
from repro.api.store import TamperEvidentStore
from repro.device.sero import SERODevice
from repro.errors import FileNotFoundError_
from repro.parallel import (
    ExecutionOutcome,
    FleetExecutor,
    HashRing,
    RpcExecutor,
    SerialExecutor,
    resolve_fleet_executor,
)


# -- executor selection --------------------------------------------------------


def test_ungrown_fleet_seal_many_routes_without_reads():
    fleet = FleetStore.create(2, total_blocks=192, seed=21)
    paths = [f"/s{i}" for i in range(12)]
    for path in paths:
        fleet.put(path, b"x" * 40)
    # seal only one member's paths; the other member must stay silent
    member0_paths = [p for p in paths if fleet.route(p) == 0]
    assert member0_paths  # 12 keys over 2 members: both populated
    before = dict(fleet.members[1].device.medium.counters)
    fleet.seal_many(member0_paths)
    assert dict(fleet.members[1].device.medium.counters) == before


def test_policy_rejects_bad_executor_and_workers():
    for name in ("no-such-dispatch", "thread", "process"):
        with pytest.raises(ValueError):
            repro.engine(executor=name)
        with pytest.raises(ValueError):
            FleetStore.create(1, executor=name)
    with pytest.raises(TypeError):  # 8.0: no worker bound to set
        repro.engine(max_workers=2)


def test_resolve_fleet_executor_accepts_instance():
    instance = SerialExecutor()
    assert resolve_fleet_executor(instance) is instance
    with pytest.raises(NotImplementedError):  # the base is abstract
        FleetExecutor().run([])
    assert type(resolve_fleet_executor("serial")) is SerialExecutor
    assert type(resolve_fleet_executor("rpc")) is RpcExecutor


# -- resolution chain ----------------------------------------------------------


def test_executor_resolution_layers(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    d = api.describe_policy()
    assert (d["executor"], d["executor_source"]) == ("serial", "default")

    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    d = api.describe_policy()
    assert (d["executor"], d["executor_source"]) == ("rpc", "env")

    with repro.engine(executor="serial"):
        d = api.describe_policy()
        assert (d["executor"], d["executor_source"]) == \
            ("serial", "context")

    assert resolve("executor", "serial") == ("serial", "explicit")


def test_unknown_env_executor_is_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "warp-drive")
    assert resolve("executor") == ("serial", "default")


def test_max_workers_env(monkeypatch):
    """8.0: ``REPRO_FLEET_WORKERS`` names nothing — a stale export
    changes neither the policy picture nor the pass."""
    # the pass runs on the default executor, whatever the shell exports
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    keys = set(api.describe_policy())
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "3")
    assert set(api.describe_policy()) == keys
    assert not [key for key in keys if "workers" in key]
    fleet = sealed_device_rack(n=2)
    fleet.audit()
    assert fleet.last_op.executor == "serial"


def test_env_executor_read_lazily_after_scheduler_built(
        monkeypatch, workers):
    """Exporting REPRO_FLEET_EXECUTOR after import *and* after the
    fleet exists must still select the executor at dispatch."""
    monkeypatch.delenv("REPRO_FLEET_EXECUTOR", raising=False)
    fleet = sealed_device_rack(n=2)
    fleet.audit()
    assert fleet.last_op.executor == "serial"
    monkeypatch.setenv("REPRO_FLEET_EXECUTOR", "rpc")
    monkeypatch.setenv("REPRO_FLEET_HOSTS", ",".join(workers))
    fleet.audit()
    assert fleet.last_op.executor == "rpc"


# -- executor equivalence ------------------------------------------------------


def test_fleet_passes_byte_identical_across_executors(workers):
    """format/seal_many/audit/deep-audit reports and the member state
    they leave must be byte-identical whichever executor dispatched
    them (the acceptance-criteria equivalence)."""
    serial = all_passes("serial")
    assert all_passes(RpcExecutor(workers)) == serial
    # the witness carries real content: verdicts and per-line hashes
    _formatted, audited, _deep, receipts, *_ = serial[0]
    assert audited.lines_verified == 6 and audited.clean
    assert all(receipt.line_hash for receipt in receipts)


def test_deep_audit_device_grain_and_fs_members():
    fleet = sealed_device_rack(n=2)
    report = fleet.audit(deep=True)
    assert fleet.last_op.operation == "audit"
    assert report.deep
    assert report.lines_verified == 4
    assert report.clean

    store = TamperEvidentStore.create(total_blocks=128)
    store.put("/a", b"x" * 100)
    store.seal("/a")
    fs_report = FleetStore([store]).audit(deep=True)
    assert not fs_report.fs_errors
    assert fs_report.lines_verified >= 1


def test_pass_record_stamped_on_both_executors(workers):
    """``last_op`` is the pass's own ExecutionOutcome, stamped by the
    fleet and kept without its results, whichever executor ran it."""
    fleet = sealed_device_rack(n=3)
    report = fleet.audit()
    assert report.device_seconds > 0
    for name in ("serial", "rpc"):
        with repro.engine(executor=name, fleet_hosts=workers):
            fleet.audit()
        record = fleet.last_op
        assert isinstance(record, ExecutionOutcome)
        assert (record.operation, record.executor) == ("audit", name)
        assert record.wall_seconds > 0 and record.results == []
        assert not record.degraded
        assert record.hosts == (tuple(sorted(workers))
                                if name == "rpc" else ())
    assert not [key for key in fleet.describe() if key.startswith("last")]


def test_bare_device_members_are_refused():
    """4.0: members are stores; a bare device is a TypeError naming
    the wrap, at construction and on growth."""
    with pytest.raises(TypeError, match=r"TamperEvidentStore\.attach"):
        FleetStore([SERODevice.create(16)])
    fleet = FleetStore([TamperEvidentStore.attach(SERODevice.create(16))])
    with pytest.raises(TypeError, match=r"TamperEvidentStore\.attach"):
        fleet.add_member(SERODevice.create(16))
    assert fleet.member_count == 1


# -- snapshot transport --------------------------------------------------------


def test_medium_snapshot_pickle_roundtrip_exact():
    device = sealed_device_rack(n=1).members[0].device
    clone = pickle.loads(pickle.dumps(device, pickle.HIGHEST_PROTOCOL))
    assert np.array_equal(clone.medium._mag, device.medium._mag)
    assert np.array_equal(clone.medium._sharpness, device.medium._sharpness)
    assert np.array_equal(clone.medium._k_scale, device.medium._k_scale)
    assert clone.medium.counters == device.medium.counters
    assert clone.bad_blocks == device.bad_blocks
    assert clone.heated_lines == device.heated_lines
    assert clone.account.elapsed == device.account.elapsed
    # RNG continuation: identical verdict sequences from here on
    a = [(r.status, r.start) for r in device.verify_all()]
    b = [(r.status, r.start) for r in clone.verify_all()]
    assert a == b
    assert clone.medium._rng.bit_generator.state == \
        device.medium._rng.bit_generator.state


def test_snapshot_pickle_is_compact():
    device = SERODevice.create(64)
    raw_bytes = device.medium._mag.nbytes + device.medium._sharpness.nbytes
    assert len(pickle.dumps(device, pickle.HIGHEST_PROTOCOL)) < raw_bytes / 4


def test_device_clone_is_independent():
    device = sealed_device_rack(n=1).members[0].device
    clone = device.clone()
    clone.verify_all()
    # the original's RNG did not move
    assert clone.medium._rng.bit_generator.state != \
        device.medium._rng.bit_generator.state or \
        device.medium.heated_count() == 0


# -- hash ring -----------------------------------------------------------------


def test_ring_deterministic_and_complete():
    ring = HashRing([f"m{i}" for i in range(4)])
    assert len(ring) == 4
    keys = [f"/obj-{i}" for i in range(200)]
    first = [ring.lookup(k) for k in keys]
    again = [ring.lookup(k) for k in keys]
    assert first == again
    fresh = HashRing([f"m{i}" for i in range(4)])
    assert [fresh.lookup(k) for k in keys] == first
    spread = ring.distribution(keys)
    assert set(spread) == {"m0", "m1", "m2", "m3"}
    assert all(count > 0 for count in spread.values())


def test_ring_rebalance_stability():
    """Adding one node to n remaps ~1/(n+1) of keys and never moves a
    key between two *old* nodes."""
    keys = [f"/obj-{i}" for i in range(1000)]
    ring = HashRing([f"m{i}" for i in range(8)])
    before = {k: ring.lookup(k) for k in keys}
    ring.add_node("m8")
    after = {k: ring.lookup(k) for k in keys}
    moved = {k for k in keys if before[k] != after[k]}
    assert all(after[k] == "m8" for k in moved)
    assert len(moved) < len(keys) * 2 / 9  # ~1/9 expected, 2x headroom
    ring.remove_node("m8")
    assert {k: ring.lookup(k) for k in keys} == before


def test_ring_errors():
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.add_node("a")
    with pytest.raises(ValueError):
        ring.remove_node("zz")
    with pytest.raises(ValueError):
        HashRing([], replicas=0)
    with pytest.raises(ValueError):
        HashRing().lookup("key")


def test_place_members_builds_one_ring_per_host_set(monkeypatch):
    """Placement is a function of the host set, whatever the order the
    hosts come in, and a repeated set reuses its ring."""
    import itertools

    from repro.parallel import remote

    hosts = ("10.0.0.7:7001", "10.0.0.8:7002", "10.0.0.9:7003")
    built = []
    monkeypatch.setattr(remote, "HashRing",
                        lambda nodes: built.append(nodes) or HashRing(nodes))
    remote._placement_ring.cache_clear()
    first = remote.place_members(hosts, range(7))
    for order in itertools.permutations(hosts):
        assert remote.place_members(order, range(7)) == first
        assert remote.place_members(order, [5, 2]) == \
            remote.place_members(hosts, [2, 5])
    assert built == [tuple(sorted(hosts))]
    remote._placement_ring.cache_clear()  # a fresh ring places alike
    assert remote.place_members(hosts[::-1], range(7)) == first
    assert len(built) == 2


# -- FleetStore ----------------------------------------------------------------


@pytest.fixture(scope="module")
def rack():
    fleet = FleetStore.create(3, total_blocks=192, seed=41)
    paths = [f"/doc-{i}" for i in range(12)]
    for path in paths:
        fleet.put(path, path.encode() * 8)
    return fleet, paths


def test_fleet_store_routing_deterministic(rack):
    fleet, paths = rack
    routes = [fleet.route(p) for p in paths]
    assert routes == [fleet.route(p) for p in paths]
    assert set(routes) == {0, 1, 2}  # 12 keys spread over all members
    for path in paths:
        assert fleet.member_for(path).info(path).path == path
        assert fleet.get(path) == path.encode() * 8


def test_fleet_store_seal_verify_audit(rack):
    fleet, paths = rack
    receipts = fleet.seal_many(paths[:6])
    assert [r.path for r in receipts] == paths[:6]
    for path in paths[:6]:
        assert fleet.verify(path).intact
    report = fleet.audit()
    assert report.lines_verified >= 6
    assert report.clean
    # member-tagged labels: a verdict names the member it came from
    assert all(r.label and r.label.partition(":")[0].startswith("m")
               for r in report.reports)


def test_fleet_store_audit_equivalent_across_executors(rack, workers):
    fleet, _paths = rack
    serial = fleet.audit()
    with repro.engine(executor="rpc", fleet_hosts=workers):
        remote = fleet.audit()
    key = lambda rep: [(r.status, r.line_start, r.label, r.stored_hash)
                       for r in rep.reports]
    assert key(serial) == key(remote)
    assert fleet.last_op.executor == "rpc"
    assert fleet.last_op.hosts == tuple(sorted(workers))


def test_fleet_store_growth_keeps_objects_reachable(rack):
    fleet, paths = rack
    before = {p: fleet.route(p) for p in paths}
    index = fleet.add_member(TamperEvidentStore.create(total_blocks=192))
    assert index == 3
    after = {p: fleet.route(p) for p in paths}
    moved = [p for p in paths if before[p] != after[p]]
    assert all(after[p] == index for p in moved)
    for path in paths:  # fallback locate covers remapped keys
        assert fleet.get(path) == path.encode() * 8
    with pytest.raises(FileNotFoundError_):
        fleet.get("/never-stored")


@pytest.mark.parametrize("grown", [False, True], ids=["exact", "grown"])
def test_a_verb_on_a_missing_path_is_the_routed_members_own(grown):
    """One holder rule for every object verb: where no member holds the
    path, the routed member takes the verb, so it logs the instruction
    and raises its own error, as a lone store does."""
    fleet = FleetStore.create(2, total_blocks=192, seed=3, audit_log=True)
    if grown:
        fleet.add_member(TamperEvidentStore.create(total_blocks=192,
                                                   audit_log=True))
    for verb in (fleet.seal, fleet.delete):
        with pytest.raises(FileNotFoundError_,
                           match="no such file: '/missing'"):
            verb("/missing")
    routed = fleet.route("/missing")
    assert [[record for _tick, record in member.history()]
            for member in fleet.members] == \
        [[b"seal /missing", b"delete /missing"] if i == routed else []
         for i in range(len(fleet.members))]


def test_fleet_store_sharded_evidence_and_archive():
    fleet = FleetStore.create(2, total_blocks=192, archive_blocks=64,
                              seed=90)
    export = fleet.export_evidence(
        "case-7", {f"exhibit-{i}": bytes([i]) * 64 for i in range(6)})
    assert export.intact
    assert len(export.items) == 6
    assert all(sub.manifest is not None for sub in export.exports)
    receipt = fleet.archive("snap", b"archive me" * 50)
    assert fleet.retrieve("snap") == b"archive me" * 50
    assert receipt.root_score


def test_fleet_store_create_distinct_seeds():
    fleet = FleetStore.create(2, total_blocks=64, seed=5)
    media = [m.device.medium for m in fleet.members]
    assert media[0].config.seed == 5
    assert media[1].config.seed == 6


def test_fleet_store_needs_members():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FleetStore([])


# -- review regressions --------------------------------------------------------


def test_mixed_fleet_routes_objects_to_fs_members():
    """Device-grain members must never receive object traffic."""
    from repro.errors import ConfigurationError

    members = [TamperEvidentStore.create(total_blocks=128),
               TamperEvidentStore.attach(SERODevice.create(64)),
               TamperEvidentStore.create(total_blocks=128)]
    fleet = FleetStore(members)
    paths = [f"/k{i}" for i in range(24)]
    for path in paths:
        fleet.put(path, b"v")  # every put must land somewhere legal
    assert {fleet.route(p) for p in paths} <= {0, 2}
    bare_only = FleetStore([TamperEvidentStore.attach(
        SERODevice.create(64))])
    with pytest.raises(ConfigurationError, match="object-capable"):
        bare_only.put("/x", b"v")


def test_format_devices_refuses_a_mounted_fleet_before_touching_it():
    """The format scan erases whatever a medium holds.  On a fleet of
    fs-backed members — 8 objects, one sealed on member 1 — it is a
    typed refusal raised before any member is scanned: every object
    still reads, no member state moved, the evidence index is as it
    was."""
    from repro.errors import ConfigurationError
    from repro.search import EvidenceIndex

    fleet, paths = object_rack()
    index = EvidenceIndex()
    fleet.attach_indexer(index)
    sealed = next(path for path in paths if fleet.route(path) == 1)
    fleet.seal(sealed)
    before, indexed = fingerprints(fleet), index.canonical_bytes()
    with pytest.raises(ConfigurationError, match="m0, m1"):
        fleet.format_devices()
    assert fingerprints(fleet) == before
    assert index.canonical_bytes() == indexed
    assert [fleet.get(path) for path in paths] == \
        [path.encode() * 8 for path in paths]
    assert fleet.verify(sealed).intact
    # one fs-backed member is enough; the device-grain ones are kept
    mixed = FleetStore([TamperEvidentStore.attach(SERODevice.create(16)),
                        TamperEvidentStore.create(total_blocks=64)])
    untouched = fingerprints(mixed)
    with pytest.raises(ConfigurationError, match="of m1:"):
        mixed.format_devices()
    assert fingerprints(mixed) == untouched


def test_fleet_archive_retrievable_from_fresh_facade():
    fleet = FleetStore.create(2, total_blocks=192, archive_blocks=64,
                              seed=123)
    fleet.archive("snap", b"payload" * 40)
    rebuilt = FleetStore(fleet.members)
    assert rebuilt.retrieve("snap") == b"payload" * 40


def test_resolve_fleet_executor_validates_max_workers():
    # 8.0: no worker bound rides along with the name
    with pytest.raises(TypeError):
        resolve_fleet_executor("serial", max_workers=0)
    with pytest.raises(ValueError):
        resolve_fleet_executor("process")


def test_close_executors_idempotent():
    from repro.parallel import close_executors

    close_executors()
    close_executors()


def test_put_after_growth_does_not_fork_objects():
    """A write to a remapped path must land on the existing copy."""
    from repro.errors import FileExistsError_

    fleet = FleetStore.create(2, total_blocks=192, seed=77)
    paths = [f"/g{i}" for i in range(16)]
    for path in paths:
        fleet.put(path, b"old")
    before = {p: fleet.route(p) for p in paths}
    while True:  # grow until at least one key remaps
        fleet.add_member(TamperEvidentStore.create(total_blocks=192))
        moved = [p for p in paths if fleet.route(p) != before[p]]
        if moved:
            break
    victim = moved[0]
    with pytest.raises(FileExistsError_):
        fleet.put(victim, b"NEW")  # no silent second copy
    fleet.put(victim, b"NEW", overwrite=True)
    assert fleet.get(victim) == b"NEW"
    fleet.delete(victim)
    with pytest.raises(FileNotFoundError_):
        fleet.get(victim)  # and no stale resurrection


def test_rearchive_keeps_one_home():
    """Re-archiving a name must not strand a stale copy elsewhere."""
    fleet = FleetStore.create(3, total_blocks=192, archive_blocks=96,
                              seed=55)
    fleet.archive("snap", b"version-one" * 20)
    fleet.archive("snap", b"version-two" * 20)
    assert fleet.retrieve("snap") == b"version-two" * 20
    fresh = FleetStore(fleet.members)
    assert fresh.retrieve("snap") == b"version-two" * 20


def test_ungrown_fleet_put_touches_only_routed_member():
    """Before any growth, routing is exact: a put must not charge
    device reads on the other members (the million-object hot path)."""
    fleet = FleetStore.create(3, total_blocks=96, seed=9)
    path = "/hot-path-object"
    target = fleet.route(path)
    others = [i for i in range(3) if i != target]
    counters_before = [dict(fleet.members[i].device.medium.counters)
                       for i in others]
    fleet.put(path, b"x")
    counters_after = [dict(fleet.members[i].device.medium.counters)
                     for i in others]
    assert counters_before == counters_after


def test_executor_instance_with_conflicting_max_workers_raises():
    # 8.0: neither the instance nor the resolution takes a worker bound
    with pytest.raises(TypeError):
        SerialExecutor(max_workers=2)
    with pytest.raises(TypeError):
        resolve_fleet_executor(SerialExecutor(), max_workers=2)
