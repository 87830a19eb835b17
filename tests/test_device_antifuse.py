"""Anti-fuse emulator tests, including cross-validation against the
patterned-medium simulator (the Section 9 validation plan)."""

import pytest

from repro.device.antifuse import AntifuseArray, AntifuseSEROEmulator
from repro.device.sero import SERODevice, VerifyStatus
from repro.errors import AlignmentError, ReadError, WriteError

PAYLOAD = bytes(range(256)) * 2


def test_fuse_is_one_way():
    bank = AntifuseArray(8)
    assert len(bank) == 8
    bank.blow(3)
    assert bank.read(3) == 1
    bank.blow(3)  # idempotent
    assert bank.read(3) == 1
    assert bank.blown_count() == 1
    assert not hasattr(bank, "clear")


def test_fuse_bounds():
    bank = AntifuseArray(4)
    with pytest.raises(IndexError):
        bank.blow(4)
    with pytest.raises(IndexError):
        bank.read(-1)


@pytest.fixture
def emulator() -> AntifuseSEROEmulator:
    emu = AntifuseSEROEmulator(total_blocks=64)
    for pba in range(1, 4):
        emu.write_block(pba, PAYLOAD)
    return emu


def test_emulator_block_roundtrip(emulator):
    assert emulator.read_block(1) == PAYLOAD
    with pytest.raises(ReadError):
        emulator.read_block(9)


def test_emulator_heat_and_verify(emulator):
    record = emulator.heat_line(0, 4, timestamp=7)
    assert record.timestamp == 7
    assert emulator.verify_line(0).status is VerifyStatus.INTACT
    assert emulator.is_block_heated(2)


def test_emulator_write_protect(emulator):
    emulator.heat_line(0, 4)
    with pytest.raises(WriteError):
        emulator.write_block(1, PAYLOAD)


def test_emulator_alignment_rules(emulator):
    with pytest.raises(AlignmentError):
        emulator.heat_line(1, 4)
    with pytest.raises(AlignmentError):
        emulator.heat_line(0, 3)


def test_emulator_detects_data_rewrite(emulator):
    emulator.heat_line(0, 4)
    emulator.tamper_rewrite_data(1, b"forged")
    assert emulator.verify_line(0).status is VerifyStatus.HASH_MISMATCH


def test_emulator_detects_fuse_tampering(emulator):
    emulator.heat_line(0, 4)
    emulator.tamper_blow_hash_fuse(0, cell=5)
    result = emulator.verify_line(0)
    assert result.status is VerifyStatus.CELL_TAMPERED
    assert 5 in result.tampered_cells


def test_emulator_virgin_line(emulator):
    assert emulator.verify_line(8).status is VerifyStatus.NOT_A_LINE


def _replay(device):
    """Identical scenario for simulator and emulator."""
    outcomes = []
    for pba in range(1, 8):
        device.write_block(pba, bytes([pba]) * 512)
    device.heat_line(0, 8, timestamp=1)
    outcomes.append(device.verify_line(0).status)
    # tamper with a data block
    if isinstance(device, AntifuseSEROEmulator):
        device.tamper_rewrite_data(3, b"FORGED")
    else:
        from repro.security import attacks

        attacks.mwb_data(device, 0, target_offset=3, forged=b"FORGED")
    outcomes.append(device.verify_line(0).status)
    # an untouched second line stays intact
    for pba in range(9, 16):
        device.write_block(pba, bytes([pba]) * 512)
    device.heat_line(8, 8, timestamp=2)
    outcomes.append(device.verify_line(8).status)
    return outcomes


def test_cross_validation_simulator_vs_emulator():
    """The Section 9 plan: the emulator validates the simulation —
    identical workloads must produce identical verdict sequences."""
    simulator_outcomes = _replay(SERODevice.create(64))
    emulator_outcomes = _replay(AntifuseSEROEmulator(total_blocks=64))
    assert simulator_outcomes == emulator_outcomes
    assert simulator_outcomes == [VerifyStatus.INTACT,
                                  VerifyStatus.HASH_MISMATCH,
                                  VerifyStatus.INTACT]


def test_cross_validation_line_hashes_agree():
    sim = SERODevice.create(64)
    emu = AntifuseSEROEmulator(total_blocks=64)
    for device in (sim, emu):
        for pba in range(1, 4):
            device.write_block(pba, b"\x7e" * 512)
    rec_sim = sim.heat_line(0, 4, timestamp=3)
    rec_emu = emu.heat_line(0, 4, timestamp=3)
    assert rec_sim.line_hash == rec_emu.line_hash
