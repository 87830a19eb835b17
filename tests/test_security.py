"""Section 5 security analysis tests: every case of the paper's matrix."""

import pytest

from repro.device.sero import VerifyStatus
from repro.security.analysis import SCENARIOS, run_attack_matrix, scenario_copy_mask
from repro.security.detection import Expectation
from repro.security.threat import POWERFUL_INSIDER, AccessLevel


def test_threat_model_defaults():
    assert POWERFUL_INSIDER.access is AccessLevel.MEDIUM
    assert not POWERFUL_INSIDER.may_remove_device
    assert not POWERFUL_INSIDER.may_destroy_physically


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_scenario_matches_paper(name):
    outcome = SCENARIOS[name]()
    assert outcome.achieved, (
        f"scenario {name!r} diverged from the paper: "
        f"expected {outcome.expectation.value}, verification = "
        f"{outcome.verification.status.value if outcome.verification else '-'} "
        f"({outcome.notes})")


def test_matrix_rows_format():
    report = run_attack_matrix(names=["mwb-hash"])
    rows = report.rows()
    assert rows[0][0] == "mwb hash"
    assert rows[0][1] == Expectation.HARMLESS.value
    assert rows[0][2] == "yes"


def test_copy_mask_ablation_shows_address_binding_matters():
    # with addresses in the hash, the copy is distinguishable; without,
    # it is not — demonstrating why Section 5.2's defence works
    with_addr = scenario_copy_mask(include_addresses=True)
    without_addr = scenario_copy_mask(include_addresses=False)
    assert with_addr.achieved
    assert without_addr.achieved  # "achieved" = matches ablated prediction
    assert with_addr.expectation is Expectation.DETECTED
    assert without_addr.expectation is Expectation.HARMLESS


def test_mwb_hash_attack_really_writes(small_device):
    from repro.security import attacks

    for pba in range(1, 4):
        small_device.write_block(pba, b"\x42" * 512)
    small_device.heat_line(0, 4)
    written = attacks.mwb_hash(small_device, 0, n_dots=32)
    assert written == 32
    assert small_device.verify_line(0).status is VerifyStatus.INTACT


def test_bulk_erase_destroys_unheated_files():
    # sanity: the attack genuinely wipes magnetic content
    from repro.errors import ReadError
    from repro.security import attacks

    from repro.device.sero import SERODevice

    device = SERODevice.create(64)
    device.write_block(1, b"\x99" * 512)
    attacks.bulk_erase(device)
    with pytest.raises(ReadError):
        device.read_block(1)
