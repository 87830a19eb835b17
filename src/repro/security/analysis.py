"""The full Section 5 attack matrix, runnable as one call.

Each scenario provisions a fresh :class:`TamperEvidentStore` with a
sealed target object, executes one attack from
:mod:`repro.security.attacks` and checks the observed behaviour
against the paper's prediction.  The attacks themselves manipulate the
medium directly (the insider with a laptop, below any API), while the
*detection* side runs through the façade — exactly the deployment
shape: tampering bypasses the service, auditing uses it.  The test
suite runs each scenario, and ``tests/test_paper.py`` prints the
whole matrix (``test_artifact[sec5]``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..api.store import TamperEvidentStore
from ..device.sero import DeviceConfig, VerifyStatus
from ..errors import ImmutableFileError, ReadError
from ..fs.fsck import deep_scan
from . import attacks
from .detection import AttackOutcome, Expectation, SecurityReport

TARGET = "/ledger.db"


def _fresh_store(total_blocks: int = 256,
                 include_addresses: bool = True) -> TamperEvidentStore:
    """A store with one sealed target object at :data:`TARGET`."""
    store = TamperEvidentStore.create(
        total_blocks=total_blocks,
        device_config=DeviceConfig(
            include_addresses_in_hash=include_addresses))
    store.put(TARGET, b"incriminating-record " * 100)
    store.seal(TARGET, timestamp=1)
    return store


def scenario_mwb_hash() -> AttackOutcome:
    """5.1 case 1: magnetic writes to the hash block are harmless."""
    store = _fresh_store()
    attacks.mwb_hash(store.device, store.receipts[TARGET].line_start)
    result = store.verify(TARGET)
    return AttackOutcome(
        name="mwb hash", expectation=Expectation.HARMLESS,
        achieved=result.status is VerifyStatus.INTACT,
        verification=result,
        notes="hash is read electrically; magnetisation is irrelevant")


def scenario_mwb_data() -> AttackOutcome:
    """5.1 case 2: magnetic rewrite of heated data -> hash mismatch."""
    store = _fresh_store()
    attacks.mwb_data(store.device, store.receipts[TARGET].line_start)
    result = store.verify(TARGET)
    return AttackOutcome(
        name="mwb inode/data", expectation=Expectation.DETECTED,
        achieved=result.status is VerifyStatus.HASH_MISMATCH,
        verification=result,
        notes="verify recomputes the line hash over the forged block")


def scenario_ewb_hash() -> AttackOutcome:
    """5.1 case 3: heating hash cells produces illegal HH codes."""
    store = _fresh_store()
    attacks.ewb_hash(store.device, store.receipts[TARGET].line_start,
                     n_cells=2)
    result = store.verify(TARGET)
    return AttackOutcome(
        name="ewb hash", expectation=Expectation.DETECTED,
        achieved=result.status is VerifyStatus.CELL_TAMPERED,
        verification=result,
        notes="UH/HU -> HH is the only possible change and is illegal")


def scenario_ewb_data() -> AttackOutcome:
    """5.1 case 4: electrically destroyed data dots -> read error."""
    store = _fresh_store()
    pba = attacks.ewb_data(store.device, store.receipts[TARGET].line_start)
    read_failed = False
    try:
        store.device.read_block(pba)
    except ReadError:
        read_failed = True
    result = store.verify(TARGET)
    return AttackOutcome(
        name="ewb inode/data", expectation=Expectation.DETECTED,
        achieved=read_failed and result.status is VerifyStatus.UNREADABLE,
        verification=result,
        notes="destroyed dots appear as a read error; verify cannot pass")


def scenario_split_file() -> AttackOutcome:
    """5.1 split/coalesce: forged sub-line heat is rejected."""
    store = _fresh_store(total_blocks=512)
    store.put("/big.db", b"x" * (20 * 512))
    receipt = store.seal("/big.db", timestamp=2)
    forged = attacks.split_file(store.device, receipt.line_start)
    result = store.verify("/big.db")
    return AttackOutcome(
        name="split/coalesce", expectation=Expectation.REJECTED,
        achieved=forged is not None and result.status is VerifyStatus.INTACT,
        verification=result,
        notes="hashes must sit at known (aligned) physical addresses")


def scenario_rm() -> AttackOutcome:
    """5.2: rm on a sealed object — refused by the façade, and the
    forced medium-level variant is tamper-evident."""
    store = _fresh_store()
    refused = False
    try:
        store.delete(TARGET)
    except ImmutableFileError:
        refused = True
    attacks.forced_rm(store.fs, TARGET)
    result = store.verify_line(store.receipts[TARGET].line_start)
    return AttackOutcome(
        name="rm heated file", expectation=Expectation.DETECTED,
        achieved=refused and result.status is VerifyStatus.HASH_MISMATCH,
        verification=result,
        notes="link count lives inside the heated line")


def scenario_ln() -> AttackOutcome:
    """5.2: ln on a sealed object is refused (link count immutable)."""
    store = _fresh_store()
    refused = False
    try:
        store.fs.link(TARGET, "/alias.db")
    except ImmutableFileError:
        refused = True
    result = store.verify(TARGET)
    return AttackOutcome(
        name="ln heated file", expectation=Expectation.REJECTED,
        achieved=refused and result.status is VerifyStatus.INTACT,
        verification=result,
        notes="increasing the reference count would rewrite the inode")


def scenario_copy_mask(include_addresses: bool = True) -> AttackOutcome:
    """5.2: an exact copy cannot mask the original — the physical
    addresses inside the hash make copies distinguishable.  With the
    ablated hash (no addresses) the copy *does* pass — the
    ``include_addresses`` ablation that ``test_artifact[sec5]`` in
    ``tests/test_paper.py`` prints."""
    store = _fresh_store(total_blocks=256,
                         include_addresses=include_addresses)
    device = store.device
    line = store.receipts[TARGET].line_start
    record = device.line_of_block(line)
    free_start = None
    for candidate in range(device.total_blocks - record.n_blocks,
                           record.n_blocks, -record.n_blocks):
        span = range(candidate, candidate + record.n_blocks)
        if not any(device.is_block_heated(pba) for pba in span):
            free_start = candidate
            break
    assert free_start is not None
    copy_start = attacks.copy_mask(device, line, free_start)
    original = store.verify_line(line)
    copy = store.verify_line(copy_start)
    copy_meta_differs = (
        copy.stored_hash != original.stored_hash
        if include_addresses else
        copy.stored_hash == original.stored_hash)
    expectation = Expectation.DETECTED if include_addresses else Expectation.HARMLESS
    achieved = (original.status is VerifyStatus.INTACT and copy_meta_differs)
    notes = ("copy's hash covers different PBAs -> distinguishable"
             if include_addresses else
             "ABLATION: without addresses the copy is indistinguishable")
    return AttackOutcome(
        name="copy masking" + ("" if include_addresses else " (no-addr ablation)"),
        expectation=expectation, achieved=achieved,
        verification=copy, notes=notes)


def scenario_clear_directory() -> AttackOutcome:
    """5.2: wiping the directory tree — the deep scan recovers the
    sealed object, name hint and all."""
    store = _fresh_store()
    attacks.clear_directory(store.fs)
    report = deep_scan(store)
    recovered = [f for f in report.recovered if f.name_hint == "ledger.db"]
    achieved = bool(recovered) and recovered[0].data is not None and \
        recovered[0].verification.status is VerifyStatus.INTACT
    return AttackOutcome(
        name="clear directory", expectation=Expectation.RECOVERED,
        achieved=achieved,
        verification=recovered[0].verification if recovered else None,
        notes="fsck deep scan recovers all heated files")


def scenario_bulk_erase() -> AttackOutcome:
    """5.2: bulk erase clears magnetic data but the electrical
    evidence survives — every line still announces itself and fails
    the audit loudly."""
    store = _fresh_store()
    line = store.receipts[TARGET].line_start
    attacks.bulk_erase(store.device)
    recovered = store.device.scan_lines()
    found = any(rec.start == line for rec in recovered)
    audit = store.audit()
    result = next(r for r in audit if r.line_start == line)
    return AttackOutcome(
        name="bulk erase", expectation=Expectation.DETECTED,
        achieved=found and result.tamper_evident,
        verification=result,
        notes="heated pattern is structural, not magnetic; it survives")


SCENARIOS: Dict[str, Callable[[], AttackOutcome]] = {
    "mwb-hash": scenario_mwb_hash,
    "mwb-data": scenario_mwb_data,
    "ewb-hash": scenario_ewb_hash,
    "ewb-data": scenario_ewb_data,
    "split": scenario_split_file,
    "rm": scenario_rm,
    "ln": scenario_ln,
    "copy-mask": scenario_copy_mask,
    "clear-dir": scenario_clear_directory,
    "bulk-erase": scenario_bulk_erase,
}


def run_attack_matrix(names: Optional[list] = None) -> SecurityReport:
    """Run all (or the named) attack scenarios; returns the report."""
    report = SecurityReport()
    for name, scenario in SCENARIOS.items():
        if names is not None and name not in names:
            continue
        report.add(scenario())
    return report
