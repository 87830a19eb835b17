"""Failure-injection tests: the stack under adverse conditions.

The second half targets the fleet executor layer: a worker process
killed mid-pass, an RPC connection dropped mid-frame, and a member
raising inside a pass must each fail the pass with a clear, raised
error — never a hang or a silently partial report — while leaving
caller-held member references consistent (no half-folded state) and
the cached connection/process pools reusable for the next pass.
"""

import os
import socket
import threading
from functools import partial

import numpy as np
import pytest

import repro
import repro.api as api
from twin_racks import (
    dead_host_splitting,
    device_rack,
    die_holding,
    fingerprints,
    sealed_device_rack,
)
from repro.device.sero import DeviceConfig, SERODevice, VerifyStatus
from repro.errors import (
    HeatError,
    ImmutableFileError,
    NoSpaceError,
    ReadError,
)
from repro.fs.fsck import deep_scan, fsck
from repro.fs.lfs import FSConfig, SeroFS
from repro.medium.medium import MediumConfig

PAYLOAD = b"\x2f" * 512


def _export_tests_dir(monkeypatch):
    """Let the workers spawned next unpickle ``twin_racks`` tasks:
    ``spawn_local_worker`` hands this process's environment on."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH",
                       here + (os.pathsep + path if path else ""))


def _tiny_store(seed):
    """A 64-block fs-backed member holding one sealed object."""
    from repro.api.store import TamperEvidentStore

    store = TamperEvidentStore.create(
        total_blocks=64, medium_config=MediumConfig(seed=seed))
    store.put("/sealed", bytes([seed % 251 + 1]) * 200)
    store.seal("/sealed")
    return store


def test_random_bit_rot_is_corrected_or_detected():
    """Flip random dots under a written block: ECC corrects up to one
    flip per 72-bit word; denser damage must raise ReadError, never
    return wrong data silently."""
    rng = np.random.default_rng(77)
    for n_flips in (1, 2, 8, 64):
        device = SERODevice.create(16)
        device.write_block(1, PAYLOAD)
        start, end = device.geometry.block_span(1)
        for index in rng.choice(end - start, size=n_flips, replace=False):
            dot = start + int(index)
            device.medium.write_mag(dot, 1 - device.medium.read_mag(dot))
        try:
            assert device.read_block(1) == PAYLOAD
        except ReadError:
            pass  # detected, which is acceptable for multi-bit damage


def test_heat_verify_failure_on_collision_with_prior_line():
    """Re-heating with different content must fail loudly and leave
    permanent HH evidence (Section 3's re-heat discussion)."""
    device = SERODevice.create(
        16, config=DeviceConfig(enforce_write_protect=False))
    for pba in range(1, 4):
        device.write_block(pba, PAYLOAD)
    device.heat_line(0, 4)
    device.write_block(2, b"\x00" * 512)
    with pytest.raises(HeatError):
        device.heat_line(0, 4)
    assert device.verify_line(0).status is VerifyStatus.CELL_TAMPERED


def test_fs_survives_repeated_out_of_space():
    fs = SeroFS.format(SERODevice.create(64))
    created = []
    for i in range(40):
        try:
            fs.create(f"/f{i}", bytes([i]) * 3000)
            created.append(f"/f{i}")
        except NoSpaceError:
            break
    assert created
    # everything that was created successfully is still readable
    for path in created:
        assert len(fs.read(path)) == 3000
    report = fsck(fs, verify_lines=False)
    assert report.clean, report.errors


def test_heat_failure_does_not_corrupt_file():
    """If no aligned extent exists the heat fails cleanly and the file
    stays intact and mutable."""
    fs = SeroFS.format(SERODevice.create(64))
    for name in ("a", "b", "c"):
        fs.create(f"/{name}", name.encode() * 5000)
    with pytest.raises(NoSpaceError):
        fs.heat_file("/a")  # needs a free aligned 16-block extent
    assert fs.read("/a") == b"a" * 5000
    fs.write("/a", b"z" * 100)  # still mutable
    assert fs.read("/a") == b"z" * 100


def test_mount_with_both_checkpoints_corrupted():
    device = SERODevice.create(256)
    fs = SeroFS.format(device)
    fs.create("/x", b"x")
    fs.checkpoint()
    # smash both checkpoint regions
    from repro.security.attacks import clear_directory

    clear_directory(fs)
    with pytest.raises(ReadError):
        SeroFS.mount(device)
    # but deep scan still works on whatever was heated
    assert deep_scan(device).recovered == []  # nothing heated yet: empty


def test_defective_medium_with_heated_lines_remount():
    device = SERODevice.create(
        256, medium_config=MediumConfig(switching_sigma=0.12,
                                        write_field=1.5, seed=20))
    device.format()
    fs = SeroFS.format(device)
    fs.create("/keep", b"k" * 2000)
    fs.heat_file("/keep")
    fs.checkpoint()
    remounted = SeroFS.mount(device)
    assert remounted.read("/keep") == b"k" * 2000
    assert remounted.verify_file("/keep").status is VerifyStatus.INTACT


def test_collateral_heating_device_still_functions():
    """With collateral heating enabled the layout is engineered safe
    (heat sink), so lines still heat and verify."""
    device = SERODevice.create(
        16, medium_config=MediumConfig(collateral_heating=True))
    for pba in range(1, 4):
        device.write_block(pba, PAYLOAD)
    device.heat_line(0, 4)
    assert device.verify_line(0).status is VerifyStatus.INTACT
    assert device.read_block(1) == PAYLOAD


def test_erb_rounds_one_device_still_verifies():
    """Even with the paper's bare 5-step erb (rounds=1) the retry
    logic at sector level keeps verify reliable."""
    device = SERODevice.create(
        16, config=DeviceConfig(erb_rounds=1, ers_cell_retries=10))
    for pba in range(1, 4):
        device.write_block(pba, PAYLOAD)
    device.heat_line(0, 4)
    for _ in range(5):
        assert device.verify_line(0).status is VerifyStatus.INTACT


# ---------------------------------------------------------------------------
# Fleet executor layer under faults


def test_rpc_worker_killed_mid_task(monkeypatch):
    """A worker that dies while executing a task (no reply ever sent)
    must surface as a raised RpcConnectionError naming the host, not a
    hang — and the caller-held member is exactly as it was."""
    from repro.parallel import RpcConnectionError, RpcExecutor, \
        spawn_local_worker
    from repro.parallel.session import store_fingerprint

    _export_tests_dir(monkeypatch)
    worker = spawn_local_worker()
    try:
        executor = RpcExecutor([worker.address])
        store = _tiny_store(7)
        before = store_fingerprint(store)
        # os._exit on the worker: the process dies mid-request, after
        # the task was delivered but before any reply (the same-host
        # retry then finds nothing listening)
        with pytest.raises(RpcConnectionError, match=worker.address):
            executor.run([partial(die_holding, store)])
        assert store_fingerprint(store) == before
    finally:
        worker.stop()


def test_rpc_worker_killed_between_passes_fails_cleanly():
    """SIGKILL one of two workers: the next pass raises a descriptive
    error, caller-held members keep their pre-pass state, and both the
    member fleet and the surviving worker's pooled connections remain
    usable for a follow-up pass."""
    from repro.parallel import HashRing, RpcConnectionError, RpcExecutor, \
        close_connection_pools, parse_hosts, spawn_local_worker

    worker_a, worker_b = spawn_local_worker(), spawn_local_worker()
    # kill a worker the ring actually assigned members to (the
    # executor's assignment is a pure function of the host set, so the
    # test can compute it) — the failed pass is then guaranteed
    hosts = parse_hosts([worker_a.address, worker_b.address])
    victim_addr = HashRing(hosts).lookup("member-0")
    victim, survivor = (worker_a, worker_b) \
        if worker_a.address == victim_addr else (worker_b, worker_a)
    try:
        fleet = device_rack(
            RpcExecutor([survivor.address, victim.address]))
        twin = device_rack("serial")
        assert fleet.format_devices() == twin.format_devices()

        victim.kill()
        before = fingerprints(fleet)
        with pytest.raises(RpcConnectionError):
            fleet.audit()
        # no member state was folded back: caller references are
        # exactly as they were before the failed pass
        assert fingerprints(fleet) == before

        # the fleet (same member stores) carries on over the survivor,
        # byte-identical to the serial twin
        rest = api.FleetStore(fleet.members,
                              executor=RpcExecutor([survivor.address]))
        assert rest.audit() == twin.audit()
        assert fingerprints(rest) == fingerprints(twin)
    finally:
        survivor.stop()
        victim.stop()
        close_connection_pools()


def test_session_worker_kill_and_restart_repins():
    """Pinned members under a worker SIGKILL: the failed pass folds
    nothing (members keep their pre-pass state), and once a worker
    listens on that address again the next pass re-pins from the
    caller-held state and completes byte-identical to the serial twin
    — no RemoteTaskError, no stale pinned state."""
    from repro.parallel import HashRing, RpcConnectionError, RpcExecutor, \
        close_connection_pools, parse_hosts, spawn_local_worker

    worker_a, worker_b = spawn_local_worker(), spawn_local_worker()
    hosts = parse_hosts([worker_a.address, worker_b.address])
    victim_addr = HashRing(hosts).lookup("member-0")
    victim, survivor = (worker_a, worker_b) \
        if worker_a.address == victim_addr else (worker_b, worker_a)
    replacement = None
    try:
        fleet = sealed_device_rack(RpcExecutor(list(hosts)))
        twin = sealed_device_rack("serial")
        assert fleet.audit() == twin.audit()  # every member pinned

        victim.kill()
        before = fingerprints(fleet)
        with pytest.raises(RpcConnectionError):
            fleet.audit()
        # the dead worker's pinned copies are gone, but nothing was
        # folded: caller members are exactly as before the failed pass
        assert fingerprints(fleet) == before

        # a worker comes back on the same address: the pass re-pins
        # (fresh daemon, empty pin cache) and simply succeeds
        replacement = spawn_local_worker(victim_addr)
        assert fleet.audit() == twin.audit()
        # and the pins are warm again: one more pass, still identical
        assert fleet.audit(deep=True) == twin.audit(deep=True)
        assert fingerprints(fleet) == fingerprints(twin)
    finally:
        survivor.stop()
        victim.stop()
        if replacement is not None:
            replacement.stop()
        close_connection_pools()


def test_session_generation_bump_after_client_side_mutation():
    """A client-side mutation between pinned passes (here a direct
    block write on a caller-held device) must invalidate the pin: the
    next audit re-pins from the mutated state instead of silently
    reusing the stale worker copy."""
    from repro.parallel import RpcExecutor, close_connection_pools, \
        spawn_local_worker
    from repro.parallel.session import session_for

    workers = [spawn_local_worker() for _ in range(2)]
    try:
        fleet = sealed_device_rack(
            RpcExecutor([w.address for w in workers]), n=2)
        twin = sealed_device_rack("serial", n=2)
        assert fleet.audit() == twin.audit()

        generations = [session_for(store).generation
                       for store in fleet.members]

        def mutate(device):  # a legitimate write outside any line
            pba = next(p for p in range(device.total_blocks - 1, 0, -1)
                       if not device.is_block_heated(p)
                       and p not in device.bad_blocks)
            device.write_block(pba, PAYLOAD)

        for f in (fleet, twin):
            for store in f.members:
                mutate(store.device)

        # the post-mutation audit agrees with the serial twin — it
        # cannot have reused the stale pins...
        assert fleet.audit() == twin.audit()
        assert fingerprints(fleet) == fingerprints(twin)
        # ...and indeed every session re-pinned under a new generation
        assert all(session_for(store).generation > gen
                   for store, gen in zip(fleet.members, generations))
    finally:
        close_connection_pools()
        for w in workers:
            w.stop()


def _one_shot_server(behavior):
    """A TCP endpoint that serves exactly one connection with
    ``behavior(conn)`` (fault simulation)."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]

    def run():
        conn, _addr = server.accept()
        try:
            behavior(conn)
        finally:
            conn.close()
            server.close()

    threading.Thread(target=run, daemon=True).start()
    return f"127.0.0.1:{port}"


def test_rpc_connection_dropped_before_reply():
    """Peer reads the request then drops the link: the request may or
    may not have been served, so the client must raise — never resend
    silently."""
    from repro.parallel import RpcConnectionError
    from repro.parallel.remote import call_worker, recv_frame

    addr = _one_shot_server(lambda conn: recv_frame(conn))  # read, close
    with pytest.raises(RpcConnectionError, match="before replying"):
        call_worker(addr, ("ping",))


def test_rpc_connection_dropped_mid_frame():
    """Peer dies halfway through writing the reply frame: the partial
    frame must never be interpreted."""
    from repro.parallel import RpcConnectionError
    from repro.parallel.remote import call_worker, recv_frame

    def truncate_reply(conn):
        recv_frame(conn)  # consume the request
        conn.sendall(b"SRP2" + (4096).to_bytes(8, "big") + b"stub")

    addr = _one_shot_server(truncate_reply)
    with pytest.raises(RpcConnectionError, match="cut short"):
        call_worker(addr, ("ping",))


def test_rpc_member_exception_propagates_with_remote_context():
    """A member raising inside a pass re-raises the *original*
    exception at the caller, chained to a RemoteTaskError naming the
    worker and carrying the remote traceback; the pool stays usable."""
    from repro.parallel import RemoteTaskError, close_connection_pools, \
        spawn_local_worker

    worker = spawn_local_worker()
    try:
        fleet = api.FleetStore.create(2, total_blocks=192, seed=13)
        paths = [f"/e{i}" for i in range(4)]
        for path in paths:
            fleet.put(path, b"x" * 40)
        fleet.seal_many(paths[:1])  # serial: now /e0 is immutable
        with repro.engine(executor="rpc", fleet_hosts=(worker.address,)):
            with pytest.raises(ImmutableFileError) as excinfo:
                fleet.seal_many(paths)  # /e0 re-sealed inside the pass
            cause = excinfo.value.__cause__
            assert isinstance(cause, RemoteTaskError)
            assert cause.host == worker.address
            assert "remote traceback" in str(cause)
            # pool reusable, members consistent: a clean pass succeeds
            receipts = fleet.seal_many(paths[1:])
            assert [r.path for r in receipts] == paths[1:]
            assert fleet.audit().clean
    finally:
        worker.stop()
        close_connection_pools()


def test_thread_executor_member_exception_keeps_members_consistent():
    """An in-pass exception under the default (in-process) executor
    propagates as the original error and leaves every member
    consistent and auditable."""
    fleet = api.FleetStore.create(2, total_blocks=192, seed=17)
    paths = [f"/t{i}" for i in range(4)]
    for path in paths:
        fleet.put(path, b"y" * 40)
    fleet.seal_many(paths[:1])
    with pytest.raises(ImmutableFileError):
        fleet.seal_many(paths)
    assert fleet.audit().clean  # still consistent and auditable


# ---------------------------------------------------------------------------
# Failover, degraded passes, and the chaos soak (ISSUE 7)


def test_session_failover_with_retries_byte_identical():
    """A retry budget: SIGKILL the host pinning
    member-0 mid-sequence — the very same pass re-pins the orphaned
    members on the survivor and completes byte-identical to the
    serial twin, RNG continuation included."""
    from repro.parallel import HashRing, RpcExecutor, \
        close_connection_pools, parse_hosts, reset_host_health, \
        spawn_local_worker

    worker_a, worker_b = spawn_local_worker(), spawn_local_worker()
    hosts = parse_hosts([worker_a.address, worker_b.address])
    victim_addr = HashRing(hosts).lookup("member-0")
    victim, survivor = (worker_a, worker_b) \
        if worker_a.address == victim_addr else (worker_b, worker_a)
    reset_host_health()
    try:
        fleet = sealed_device_rack(RpcExecutor(list(hosts), retries=2))
        twin = sealed_device_rack("serial")
        assert fleet.audit() == twin.audit()  # every member pinned

        victim.kill()
        # no raise: the pass itself absorbs the dead host
        assert fleet.audit() == twin.audit()
        assert not fleet.last_op.failures
        assert sum(fleet.last_op.retries.values()) >= 1
        # RNG continuation: the next pass still agrees
        assert fleet.audit(deep=True) == twin.audit(deep=True)
        assert fingerprints(fleet) == fingerprints(twin)
    finally:
        survivor.stop()
        victim.stop()
        close_connection_pools()
        reset_host_health()


def test_mixed_pass_failover_replaces_both_task_kinds(monkeypatch):
    """One pass mixing pinned audits with a task that SIGKILLs its host
    mid-round, with one retry wave: every member of the dead host —
    the audits whose replies had already arrived and the killer alike
    — re-places on the survivor, results land in their slots, the
    stores match the serial twin, and nothing from the dead round was
    folded (a double-run audit would advance the RNG twice)."""
    from repro.api.fleet import _audit_member
    from repro.parallel import HashRing, RpcExecutor, SerialExecutor, \
        close_connection_pools, parse_hosts, reset_host_health, \
        spawn_local_worker
    from repro.parallel.session import session_for, store_fingerprint

    _export_tests_dir(monkeypatch)
    victim, survivor = spawn_local_worker(), spawn_local_worker()
    hosts = parse_hosts([victim.address, survivor.address])
    ring = HashRing(hosts)
    on_victim, slots = [], 0
    while len(on_victim) < 3 or slots - len(on_victim) < 2:
        if ring.lookup(f"member-{slots}") == victim.address:
            on_victim.append(slots)
        slots += 1
    # on the victim, in wire order: two pinned audits whose replies
    # come home, then the task that kills the host
    killer = on_victim[2]

    def tasks_over(stores):
        return [partial(_audit_member, store, True, True)
                for store in stores]

    reset_host_health()
    try:
        stores = [_tiny_store(40 + i) for i in range(slots)]
        twins = [_tiny_store(40 + i) for i in range(slots)]
        killed_before = store_fingerprint(stores[killer])
        tasks = tasks_over(stores)
        # SIGKILL needs no cooperation; re-placed on the survivor the
        # same call signals the unreaped victim again, harmlessly
        tasks[killer] = partial(die_holding, stores[killer],
                                victim.process.pid)
        outcome = RpcExecutor(list(hosts), retries=1).run(tasks)
        reference = SerialExecutor().run(tasks_over(twins))

        assert not outcome.failures
        assert outcome.retries == {victim.address: len(on_victim)}
        for i in range(slots):
            assert set(session_for(stores[i]).pins) == {survivor.address}
            payload, state = outcome.results[i]
            assert state is stores[i]  # folded into the caller's
            if i == killer:
                assert payload is None
                assert store_fingerprint(stores[i]) == killed_before
            else:
                assert payload == reference.results[i][0]
                assert store_fingerprint(stores[i]) == \
                    store_fingerprint(twins[i])
    finally:
        survivor.stop()
        victim.stop()
        close_connection_pools()
        reset_host_health()


def test_degrade_mode_yields_partial_report():
    """on_failure='degrade' with an unreachable host and no retry
    budget: the pass completes partial — surviving members fold
    byte-identical to serial, dead-host members appear as typed
    MemberFailure records (in their ``format_devices`` slots and in
    ``last_op.failures``) and their caller-held state is untouched."""
    from repro.parallel import HashRing, MemberFailure, RpcExecutor, \
        close_connection_pools, reset_host_health, spawn_local_worker

    worker = spawn_local_worker()
    holder = None
    n = 4
    try:
        dead, hosts, holder = dead_host_splitting(
            worker.address, [f"member-{i}" for i in range(n)])
        lost = {i for i in range(n)
                if HashRing(hosts).lookup(f"member-{i}") == dead}
        assert lost and len(lost) < n  # the ring split the members
        reset_host_health()
        fleet = device_rack(
            RpcExecutor(list(hosts), retries=0, on_failure="degrade"),
            n=n)
        twin = device_rack("serial", n=n)
        before = fingerprints(fleet)
        reports = fleet.format_devices()
        reference = twin.format_devices()

        assert fleet.last_op.degraded
        assert {f.index for f in fleet.last_op.failures} == lost
        for failure in fleet.last_op.failures:
            assert isinstance(failure, MemberFailure)
            assert failure.error_type == "RpcConnectionError"
            assert dead in failure.hosts_tried
        # a failed member's slot *is* its failure record; surviving
        # members folded byte-identical to the twin ...
        after, expected = fingerprints(fleet), fingerprints(twin)
        for i in range(n):
            if i in lost:
                assert reports[i] in fleet.last_op.failures
                # ... and failed members folded *nothing*
                assert after[i] == before[i]
            else:
                assert reports[i] == reference[i]
                assert after[i] == expected[i]
    finally:
        if holder is not None:
            holder.close()
        worker.stop()
        close_connection_pools()
        reset_host_health()


def test_fleetstore_degrade_member_exception_and_audit():
    """FleetStore surface under degrade: a deterministic member error
    (re-sealing a sealed object) becomes a MemberFailure receipt for
    exactly the affected paths — never retried — and a degraded audit
    against a dead host reports per-member fs_errors instead of
    claiming a clean store."""
    from repro.parallel import MemberFailure, close_connection_pools, \
        reset_host_health, spawn_local_worker

    worker = spawn_local_worker()
    holder = None
    try:
        dead, _hosts, holder = dead_host_splitting(
            worker.address, ["member-0", "member-1"])
        reset_host_health()
        fleet = api.FleetStore.create(2, total_blocks=192, seed=23)
        paths = [f"/d{i}" for i in range(4)]
        for path in paths:
            fleet.put(path, b"z" * 40)
        fleet.seal_many(paths[:1])  # serial: /d0 now immutable
        with repro.engine(executor="rpc", fleet_hosts=(worker.address,),
                          fleet_on_failure="degrade"):
            receipts = fleet.seal_many(paths)
        failed = [r for r in receipts if isinstance(r, MemberFailure)]
        sealed = [r for r in receipts if not isinstance(r, MemberFailure)]
        assert failed and sealed
        assert all(f.error_type == "ImmutableFileError" for f in failed)
        assert all(f.attempts == 1 for f in failed)  # never retried
        assert fleet.last_op is not None and fleet.last_op.degraded
        # the healthy members really did seal: a serial audit is clean
        assert fleet.audit().clean

        # now audit through a dead host in degrade mode: loud partial
        with repro.engine(executor="rpc",
                          fleet_hosts=(worker.address, dead),
                          fleet_on_failure="degrade"):
            degraded = fleet.audit()
        assert not degraded.clean
        assert any("member audit failed" in e and e.startswith("m")
                   for e in degraded.fs_errors)
    finally:
        if holder is not None:
            holder.close()
        worker.stop()
        close_connection_pools()
        reset_host_health()


def test_executor_degrade_member_exception_keeps_slot():
    """Executor-level degrade: a task raising remotely occupies its
    results slot with a MemberFailure (error preserved by type and
    message) while other tasks' results come back normally."""
    from repro.api.fleet import _seal_many_member
    from repro.api.store import TamperEvidentStore
    from repro.parallel import MemberFailure, RpcExecutor, \
        SerialExecutor, close_connection_pools, spawn_local_worker
    from repro.parallel.session import store_fingerprint

    def members():
        stores = [TamperEvidentStore.create(
                      total_blocks=64, medium_config=MediumConfig(seed=s))
                  for s in (5, 6)]
        stores[0].put("/present", b"p" * 100)
        return [partial(_seal_many_member, stores[0], ("/present",), 9),
                partial(_seal_many_member, stores[1], ("/missing",), 9)]

    worker = spawn_local_worker()
    try:
        executor = RpcExecutor([worker.address], on_failure="degrade")
        tasks = members()
        untouched = store_fingerprint(tasks[1].args[0])
        outcome = executor.run(tasks)
        receipts, state = outcome.results[0]
        assert state is tasks[0].args[0]
        reference = SerialExecutor().run(members()[:1]).results[0]
        assert receipts == reference[0]
        assert store_fingerprint(state) == store_fingerprint(reference[1])
        failure = outcome.results[1]
        assert isinstance(failure, MemberFailure)
        assert failure.index == 1
        assert failure.error_type == "FileNotFoundError_"
        assert "/missing" in failure.message
        assert not failure.timed_out
        assert outcome.failures == [failure]
        assert store_fingerprint(tasks[1].args[0]) == untouched
    finally:
        worker.stop()
        close_connection_pools()


def test_spawn_local_worker_kills_child_on_startup_ping_failure(
        monkeypatch):
    """If the freshly spawned worker announces its address but never
    answers the startup ping, spawn_local_worker must not leak the
    child: it kills the process and raises."""
    import re

    from repro.parallel import RpcConnectionError
    from repro.parallel import remote as remote_mod

    real_ping = remote_mod.ping

    def never_answers(addr, *, timeout=5.0, secret=None):
        raise RpcConnectionError(f"injected: no pong from {addr}")

    monkeypatch.setattr(remote_mod, "ping", never_answers)
    with pytest.raises(RpcConnectionError,
                       match="never answered the startup ping") as err:
        remote_mod.spawn_local_worker()
    address = re.search(r"at (\S+?:\d+) announced", str(err.value))
    assert address is not None
    monkeypatch.setattr(remote_mod, "ping", real_ping)
    # the child was killed: nothing listens on that address any more
    with pytest.raises(RpcConnectionError):
        real_ping(address.group(1), timeout=1.0)


def test_failover_replacement_is_minimal_and_deterministic():
    """Property: dropping one host from the ring re-places *only* the
    members that lived on it — survivors keep their placement — and
    the re-placement is a pure function of the surviving host set."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.parallel import HashRing

    @settings(max_examples=60, deadline=None)
    @given(n_hosts=st.integers(2, 6), n_members=st.integers(1, 32),
           drop=st.integers(0, 5))
    def check(n_hosts, n_members, drop):
        hosts = tuple(f"10.0.0.{i}:{7100 + i}" for i in range(n_hosts))
        members = [f"member-{i}" for i in range(n_members)]
        ring = HashRing(hosts)
        before = {m: ring.lookup(m) for m in members}
        victim = hosts[drop % n_hosts]
        survivors = tuple(h for h in hosts if h != victim)
        after = {m: HashRing(survivors).lookup(m) for m in members}
        for member, placed in before.items():
            if placed == victim:
                assert after[member] in survivors
            else:
                assert after[member] == placed  # minimal disruption
        # determinism: an independent rebuild places identically
        again = HashRing(tuple(reversed(survivors)))
        assert {m: again.lookup(m) for m in members} == after

    check()


def test_soak_tiny_run_is_clean():
    """A miniature trace-driven soak — two kills bracketing a restart,
    so whichever host the ring placed the members on gets killed at
    some point — must finish with zero invariant violations and a
    verified partial-fold probe."""
    from repro.workloads import SoakConfig, SoakFault, run_soak

    report = run_soak(SoakConfig(
        members=2, workers=2, ops=10, seed=31, total_blocks=192,
        checkpoint_every=5, retries=3, timeout=30.0,
        faults=(SoakFault(2, "kill", worker=0),
                SoakFault(5, "restart", worker=0),
                SoakFault(7, "kill", worker=1))))
    assert report.clean, report.violations
    assert report.ops_completed == 10
    assert report.kills == 2 and report.restarts == 1
    assert report.checkpoints >= 1
    assert report.audits_clean == report.checkpoints
    assert report.partial_fold_probe == "verified"
    payload = report.to_json()
    assert payload["clean"] is True
    assert payload["ops_per_second"] > 0


def test_soak_trajectory_appends_and_migrates(tmp_path):
    """BENCH_soak.json is a trajectory: runs append an ops/s series
    instead of overwriting, and a legacy single-run file becomes the
    first datapoint in place."""
    import json as _json

    from repro.workloads.soak import MAX_KEPT_RUNS, append_trajectory

    target = str(tmp_path / "BENCH_soak.json")
    legacy = {"bench": "soak", "ops_completed": 24,
              "wall_seconds": 8.0, "ops_per_second": 3.0,
              "kills": 2, "clean": True,
              "failover_retries": {"h:1": 5}}
    with open(target, "w") as handle:
        _json.dump(legacy, handle)

    run = {"bench": "soak", "ops_completed": 48, "wall_seconds": 10.0,
           "ops_per_second": 4.8, "kills": 2, "restarts": 1,
           "connection_drops": 1, "clean": True,
           "failover_retries": {"h:1": 2, "h:2": 1}}
    document = append_trajectory(target, run)
    assert [p["ops_per_second"] for p in document["trajectory"]] == \
        [3.0, 4.8]
    assert document["trajectory"][0]["failover_retries"] == 5
    assert document["latest"] == run

    # subsequent runs keep appending; full payloads stay bounded
    for i in range(MAX_KEPT_RUNS + 5):
        document = append_trajectory(
            target, dict(run, ops_per_second=5.0 + i))
    with open(target) as handle:
        on_disk = _json.load(handle)
    assert len(on_disk["trajectory"]) == 2 + MAX_KEPT_RUNS + 5
    assert len(on_disk["runs"]) == MAX_KEPT_RUNS
    assert on_disk["runs"][-1]["ops_per_second"] == \
        5.0 + MAX_KEPT_RUNS + 4
