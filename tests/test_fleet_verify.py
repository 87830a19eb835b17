"""A fleet verify reaches the member's verdict, whatever the tamper hit.

A sealed line keeps its inode in block 1, and the member's own
``verify`` finds the line from the directory entry alone, so a smashed
inode cannot hide the evidence (Section 5.2).  The fleet must not undo
that: it may not parse the object's inode on its way to the member.
Each test here seals one object, overwrites the inode block of its
line (``attacks.mwb_data``'s default target), and asks the fleet — in
process, over rpc workers, over HTTP and after growth — for the
verdict an identically built twin's member gives: ``HASH_MISMATCH``,
never a read error.
"""

import pytest

from repro.api.fleet import FleetStore
from repro.api.store import TamperEvidentStore, VerifyStatus
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayServer,
    TokenTable,
    confine,
)
from repro.medium.medium import MediumConfig
from repro.parallel import RpcExecutor
from repro.parallel.session import store_fingerprint
from repro.security import attacks

PATH = "/a/b"
DATA = bytes(range(250)) * 12  # 3000 B


def _fleet(executor=None):
    return FleetStore.create(4, total_blocks=256, seed=58,
                             executor=executor)


def _holder(fleet, path):
    """The member that sealed ``path``."""
    (member,) = [m for m in fleet.members if path in m.receipts]
    return member


def _seal_and_smash(fleet, path=PATH):
    """Put and seal ``path``, then overwrite its line's inode block."""
    fleet.put(path, DATA, make_parents=True)
    (receipt,) = fleet.seal_many([path])
    member = _holder(fleet, path)
    pba = attacks.mwb_data(member.device, receipt.line_start)
    assert pba == member.fs.imap[member.fs._lookup_ino(path)]
    return member


def _member_verdict(twin, path=PATH):
    """What the twin's holding member itself reports."""
    report = _seal_and_smash(twin, path).verify(path)
    assert report.status is VerifyStatus.HASH_MISMATCH
    return report


@pytest.mark.parametrize("remote", [False, True], ids=["serial", "rpc"])
def test_fleet_verify_of_a_smashed_inode_is_the_members_verdict(
        remote, request):
    executor = RpcExecutor(request.getfixturevalue("workers")) \
        if remote else None
    fleet, twin = _fleet(executor), _fleet()
    expected = _member_verdict(twin)
    _seal_and_smash(fleet)
    assert fleet.verify(PATH) == expected
    assert [store_fingerprint(m) for m in fleet.members] == \
        [store_fingerprint(m) for m in twin.members]


def test_gateway_verify_of_a_smashed_inode_answers_the_verdict():
    fleet, twin = _fleet(), _fleet()
    path = confine("acme", PATH)
    expected = _member_verdict(twin, path)
    app = GatewayApp(fleet, TokenTable.from_spec("acme-rw=acme:rw"))
    with GatewayServer(app) as server:
        client = GatewayClient(server.address, "acme-rw", tenant="acme")
        client.put(PATH, DATA)
        receipt = client.seal(PATH)
        attacks.mwb_data(_holder(fleet, path).device, receipt.line_start)
        assert client.verify(PATH) == expected


def test_grown_fleet_finds_a_smashed_inode_by_its_directory_entry():
    """After growth a verify probes members for the path; the probe
    reads the directory entry, so it finds the holder even when the
    path now routes to a newcomer that lacks it."""
    fleet, twin = _fleet(), _fleet()
    for rack in (fleet, twin):
        rack.put(PATH, DATA, make_parents=True)
    home = fleet.route(PATH)
    seed = 100
    while fleet.route(PATH) == home:
        assert seed < 116, "no growth step remapped the path"
        for rack in (fleet, twin):
            rack.add_member(TamperEvidentStore.create(
                total_blocks=256, medium_config=MediumConfig(seed=seed)))
        seed += 1
    for rack in (fleet, twin):
        (receipt,) = rack.seal_many([PATH])
        attacks.mwb_data(_holder(rack, PATH).device, receipt.line_start)
    assert _holder(fleet, PATH) is fleet.members[home]
    expected = _holder(twin, PATH).verify(PATH)
    assert expected.status is VerifyStatus.HASH_MISMATCH
    assert fleet.verify(PATH) == expected
