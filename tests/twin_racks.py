"""Seeded twin racks for the fleet byte-identity tests.

The contract under test: when the ``rpc`` executor dispatches a fleet
pass across processes, the typed reports it returns and the state it
leaves on every member equal what the ``serial`` executor produces
in-process on an identically seeded twin.  Tests build one rack per
executor with these helpers and compare the reports (frozen
dataclasses, ``==``) and :func:`fingerprints` against the twin's.

Two rack shapes, because no single one takes every pass:

* :func:`device_rack` — bare devices behind
  ``TamperEvidentStore.attach`` (32 blocks each, cheap): takes
  ``format_devices``/``audit``/``audit(deep=True)``; its lines are
  heated client-side by :func:`seal_lines` (a format scan would wipe a
  file system, and a device-grain member has no objects to
  ``seal_many``);
* :func:`object_rack` — file-system-backed members holding unsealed
  objects: takes ``seal_many``/``audit``/``audit(deep=True)``.

:func:`dead_host_splitting` finds the unreachable second host the
degrade-mode tests put beside one live worker, and :class:`DieHolding`
is the member store whose audit kills a worker mid-round (a worker
unpickles its pinned snapshot only with ``tests/`` on its
``PYTHONPATH``, which ``spawn_local_worker`` copies from this
process's environment).

:func:`thread_worker` serves a :class:`~repro.parallel.remote.WorkerServer`
on a thread of this process: the worker of every rpc test that neither
kills a worker process, reads a worker's stderr nor compares worker
PIDs — those spawn ``spawn_local_worker`` subprocesses.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import socket
import threading

from repro.api.fleet import FleetStore
from repro.api.store import AuditReport, TamperEvidentStore
from repro.device.sero import BLOCK_SIZE, SERODevice
from repro.medium.medium import MediumConfig
from repro.parallel import parse_hosts
from repro.parallel.remote import WorkerServer, place_members
from repro.parallel.session import store_fingerprint

_PAYLOAD = bytes(range(256)) * (BLOCK_SIZE // 256)


def device_rack(executor=None, *, n=3, blocks=32):
    """``n`` device-grain members on distinct, slightly defective
    media (seed ``2008 + i``)."""
    return FleetStore(
        [TamperEvidentStore.attach(SERODevice.create(
            blocks, medium_config=MediumConfig(switching_sigma=0.02,
                                               seed=2008 + i)))
         for i in range(n)],
        executor=executor)


def seal_lines(fleet, lines=2, line_blocks=4):
    """Heat up to ``lines`` aligned, defect-free lines on every member
    of a device rack — a client-side mutation, so under ``rpc`` the
    next pass re-pins."""
    for store in fleet.members:
        device = store.device
        usable = [start for start in range(
                      0, device.total_blocks - line_blocks + 1, line_blocks)
                  if start not in device.fragile_blocks
                  and device.bad_blocks.isdisjoint(
                      range(start, start + line_blocks))]
        for start in usable[:lines]:
            for pba in range(start + 1, start + line_blocks):
                device.write_block(pba, _PAYLOAD)
            device.heat_line(start, line_blocks)


def sealed_device_rack(executor=None, **rack):
    """A formatted :func:`device_rack` with its lines heated."""
    fleet = device_rack(executor, **rack)
    fleet.format_devices()
    seal_lines(fleet)
    return fleet


def object_rack(executor=None, *, n=2, total_blocks=192, seed=33,
                objects=8):
    """``(fleet, paths)``: ``n`` fs-backed members holding ``objects``
    unsealed objects, ring-routed."""
    fleet = FleetStore.create(n, total_blocks=total_blocks, seed=seed,
                              executor=executor)
    paths = [f"/obj-{i}" for i in range(objects)]
    for path in paths:
        fleet.put(path, path.encode() * 8)
    return fleet, paths


@contextlib.contextmanager
def thread_worker(*, secret=None):
    """``(address, server)``: a :class:`WorkerServer` (frame
    ``secret``, None for the key the chain resolves) serving
    ``127.0.0.1:0`` on a daemon thread until the block exits."""
    server = WorkerServer(("127.0.0.1", 0), secret=secret)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              name="thread-worker", daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"{host}:{port}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def dead_host_splitting(live_addr, member_keys):
    """``(dead, hosts, holder)``: an address nothing listens on, chosen
    so the placement over ``(live, dead)`` puts at least one of the
    ``member-<i>`` keys on each host (the live worker's port is
    dynamic, so the split must be searched).  ``holder`` is the socket
    bound to the dead port and never put in ``listen``: connects are
    refused and, for as long as the caller keeps it open, nobody else
    (the next spawned worker included) can be handed the port — close
    it in a ``finally``.

    Every unprivileged port is a candidate, in random order: the
    placement is balanced, so with two or more members the first free
    port splits them."""
    for port in random.sample(range(1024, 65536), 65536 - 1024):
        dead = f"127.0.0.1:{port}"
        if dead == live_addr:
            continue
        hosts = parse_hosts([live_addr, dead])
        indices = [int(key.rpartition("-")[2]) for key in member_keys]
        if set(place_members(hosts, indices).values()) != set(hosts):
            continue
        holder = socket.socket()
        try:
            holder.bind(("127.0.0.1", port))
        except OSError:  # the port is taken
            holder.close()
            continue
        return dead, hosts, holder
    raise AssertionError(f"no port splits {member_keys} with {live_addr}")


class DieHolding(TamperEvidentStore):
    """A member store whose ``audit`` takes its worker down mid-round:
    the worker running it exits without replying, or, with
    ``kill_pid`` set, that process is SIGKILLed and the audit returns
    an empty report touching nothing — so re-placed on a survivor it
    is harmless.  A pinned snapshot carries its class, so the worker
    runs this ``audit``; never run it in-process."""

    kill_pid = None

    def audit(self, *, deep=False):
        if self.kill_pid is None:
            os._exit(17)
        os.kill(self.kill_pid, signal.SIGKILL)
        return AuditReport(deep=deep)


def fingerprints(fleet):
    """Everything a pass can change on each member, fleet order."""
    return [store_fingerprint(member) for member in fleet.members]


def all_passes(executor, **rack):
    """Run every fleet pass on fresh racks under ``executor``:
    ``(typed reports, member fingerprints)`` for twin comparison."""
    devices = device_rack(executor, **rack)
    reports = [devices.format_devices()]
    seal_lines(devices)
    reports += [devices.audit(), devices.audit(deep=True)]
    objects, paths = object_rack(executor)
    reports += [objects.seal_many(paths), objects.audit(),
                objects.audit(deep=True)]
    return reports, fingerprints(devices) + fingerprints(objects)
