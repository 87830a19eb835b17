#!/usr/bin/env python3
"""Remote fleet walkthrough: two worker daemons, one rack, zero drift.

The ``rpc`` executor ships fleet members to worker daemons over TCP —
the compact medium snapshot out, the mutated state (or a ~kB read-only
patch) back — and the per-member results stay byte-identical to the
serial reference.  This example:

* spins up two loopback workers (or, when ``REPRO_FLEET_HOSTS`` is
  already exported — e.g. by the CI job — uses those instead);
* provisions and audits a rack of bare devices (device-grain
  :class:`repro.FleetStore` members) on the ``rpc`` executor, and
  proves reports and member state match a serially driven twin byte
  for byte, reading the pass record (executor, hosts, per-host wire
  bytes) out of ``fleet.last_op``;
* seals and audits sharded objects through a file-system-backed
  :class:`repro.FleetStore` over the same workers.

Run:  python examples/fleet_remote.py
"""

import os

import repro
from repro.device.sero import SERODevice
from repro.medium.medium import MediumConfig
from repro.parallel import close_connection_pools, spawn_local_worker
from repro.parallel.session import store_fingerprint


def provision(executor=None, n_devices=3, blocks=32):
    """Bare devices behind ``TamperEvidentStore.attach`` (defect-free
    media, so any aligned line is usable — ``examples/fleet_rack.py``
    shows the defect-skipping idiom): format-scan the rack on
    ``executor``, then heat two four-block lines per device."""
    rack = repro.FleetStore([
        repro.TamperEvidentStore.attach(SERODevice.create(
            blocks, medium_config=MediumConfig(seed=2008 + i)))
        for i in range(n_devices)], executor=executor)
    rack.format_devices()
    for member in rack.members:
        for start in (0, 4):
            for pba in range(start + 1, start + 4):
                member.device.write_block(pba, bytes([pba]) * 512)
            member.device.heat_line(start, 4, timestamp=20080226)
    return rack


def main() -> None:
    preset = os.environ.get("REPRO_FLEET_HOSTS", "").strip()
    workers = []
    if preset:
        hosts = tuple(item.strip() for item in preset.split(",") if item)
        print(f"== using exported REPRO_FLEET_HOSTS ({len(hosts)} workers)")
    else:
        workers = [spawn_local_worker() for _ in range(2)]
        hosts = tuple(w.address for w in workers)
        print(f"== spawned {len(hosts)} loopback workers: "
              f"{', '.join(hosts)}")

    try:
        with repro.engine(executor="rpc", fleet_hosts=hosts):
            policy = repro.api.describe_policy()
            print(f"   policy: executor={policy['executor']} "
                  f"(decided by {policy['executor_source']}), hosts by "
                  f"{policy['fleet_hosts_source']}")

            print("== device rack over rpc: provision + audit")
            remote_rack = provision()
            audited = remote_rack.audit()
        serial_rack = provision(executor="serial")
        assert audited == serial_rack.audit()
        assert [store_fingerprint(m) for m in remote_rack.members] == \
            [store_fingerprint(m) for m in serial_rack.members]
        stats = remote_rack.last_op
        print(f"   audited {audited.lines_verified} lines on "
              f"{stats.executor} over hosts {list(stats.hosts)} in "
              f"{stats.wall_seconds * 1e3:.1f} ms — byte-identical to "
              f"serial")
        for host in stats.hosts:
            print(f"     {host}: {stats.bytes_out.get(host, 0)} B out, "
                  f"{stats.bytes_back.get(host, 0)} B back")

        print("== FleetStore over rpc: sharded seal + audit")
        fleet = repro.FleetStore.create(2, total_blocks=192, seed=2008)
        paths = [f"/ledger-{year}" for year in range(2000, 2008)]
        for path in paths:
            fleet.put(path, f"entries of {path}".encode() * 8)
        with repro.engine(executor="rpc", fleet_hosts=hosts):
            receipts = fleet.seal_many(paths, timestamp=20080226)
            report = fleet.audit()
        print(f"   sealed {len(receipts)}, audited "
              f"{report.lines_verified} lines via "
              f"{fleet.last_op.executor} over "
              f"{len(fleet.last_op.hosts)} hosts -> "
              f"clean={report.clean}")
        assert report.clean
    finally:
        for worker in workers:
            worker.stop()
        close_connection_pools()
    print("remote fleet walkthrough complete.")


if __name__ == "__main__":
    main()
