#!/usr/bin/env python3
"""Fleet rack walkthrough: shard, seal, audit, tamper.

A compliance service runs *racks* of tamper-evident devices, not one.
This example drives the one rack-scale façade,
:class:`repro.FleetStore`, end to end at both grains:

* a store-shaped front door over many file-system-backed members;
  objects shard across members by content-addressed consistent
  hashing, and fleet-wide passes fan out on the resolved executor;
* the same façade over bare devices (device-grain members): the
  format → heat → audit → deep-audit provisioning passes, each
  pass's record (executor, hosts, wire bytes) in ``fleet.last_op``.

Passes run ``serial`` (in-process) unless ``REPRO_FLEET_EXECUTOR`` or
``repro.engine(executor=...)`` says ``rpc``; ``examples/fleet_remote.py``
runs the same passes across processes and checks them against this
in-process reference.

Run:  python examples/fleet_rack.py
"""

import repro
from repro.device.sero import SERODevice
from repro.medium.medium import MediumConfig
from repro.security import attacks


def sharded_store() -> None:
    print("== FleetStore: one store surface, rack-sized")
    fleet = repro.FleetStore.create(3, total_blocks=192, seed=2008)

    # objects shard by path hash: no central index, stable routing
    paths = [f"/ledger-{year}" for year in range(2000, 2008)]
    for path in paths:
        fleet.put(path, f"entries of {path}".encode() * 8)
    spread = [fleet.route(path) for path in paths]
    print(f"   {len(paths)} objects over {fleet.member_count} members: "
          f"routes {spread}")

    # fleet-wide seal + audit, fanned out on the resolved executor
    receipts = fleet.seal_many(paths, timestamp=20080226)
    report = fleet.audit()
    print(f"   sealed {len(receipts)}, audited {report.lines_verified} "
          f"lines via {fleet.last_op.executor} -> clean={report.clean}")

    # an insider rewrites one sealed line on one member device
    victim = fleet.member_for(paths[0])
    attacks.mwb_data(victim.device, receipts[0].line_start)
    report = fleet.audit()
    culprit = next(r for r in report.reports if r.tamper_evident)
    print(f"   tampered member exposed: {culprit.label} -> "
          f"{culprit.status.value}")
    assert not report.clean


def provision(n_devices: int = 4, blocks: int = 32) -> repro.FleetStore:
    """A rack of bare devices: each joins the fleet device-grain
    (``TamperEvidentStore.attach``), is format-scanned, and gets two
    four-block lines written and heated through the device API."""
    rack = repro.FleetStore([
        repro.TamperEvidentStore.attach(SERODevice.create(
            blocks, medium_config=MediumConfig(switching_sigma=0.02,
                                               seed=2008 + i)))
        for i in range(n_devices)])
    formatted = rack.format_devices()
    sealed = 0
    for member in rack.members:
        device = member.device
        starts = [s for s in range(0, blocks, 4)
                  if s not in device.fragile_blocks
                  and device.bad_blocks.isdisjoint(range(s, s + 4))][:2]
        for start in starts:
            for pba in range(start + 1, start + 4):
                device.write_block(pba, bytes([pba]) * 512)
            device.heat_line(start, 4, timestamp=20080226)
        sealed += len(starts)
    print(f"   formatted {sum(r.blocks for r in formatted)} blocks on "
          f"{len(formatted)} devices, sealed {sealed} lines "
          f"({rack.last_op.executor} executor)")
    return rack


def device_rack() -> None:
    print("== FleetStore over bare devices: provision and audit a rack")
    rack = provision()

    report = rack.audit()
    assert report.clean
    print(f"   audit x{report.lines_verified} lines, "
          f"{report.device_seconds * 1e3:.1f}ms of device time "
          f"({rack.last_op.executor} executor, remote hosts: "
          f"{list(rack.last_op.hosts) or 'none'})")

    checked = rack.audit(deep=True)
    print(f"   deep audit: {checked.lines_verified} lines re-verified, "
          f"{len(checked.fs_errors)} errors")

    policy = repro.api.describe_policy()
    print(f"   policy: executor={policy['executor']} "
          f"(decided by {policy['executor_source']})")


def main() -> None:
    sharded_store()
    device_rack()
    print("rack walkthrough complete.")


if __name__ == "__main__":
    main()
