"""The paper's artifacts: one check per ``repro.analysis.EXPERIMENTS`` id.

Each check regenerates one figure or section result of Hartel et al.,
prints its rows through ``format_table`` / ``format_series`` and
asserts the shape the registry states, quoting the paper where it
makes the claim.  See the tables with::

    PYTHONPATH=src python -m pytest -q -s tests/test_paper.py

A claim that another test already asserts on the same code and
scenario is printed here but not asserted again; the comment beside
it names the test that holds it.
"""

import random
from typing import Callable, Dict

import numpy as np
import pytest

from repro.analysis import EXPERIMENTS
from repro.analysis.report import format_series, format_table
from repro.crypto import manchester, wom
from repro.crypto.manchester import bytes_to_bits
from repro.crypto.sha256 import sha256_digest
from repro.device.antifuse import AntifuseSEROEmulator
from repro.device.bitops import BitOps
from repro.device.sector import E_REGION_DOTS
from repro.device.sero import SERODevice, VerifyStatus
from repro.device.shred import classify_destroyed_line, shred_line
from repro.device.timing import TimingModel
from repro.errors import NoSpaceError
from repro.fs.bimodal import bimodality
from repro.fs.cleaner import clean_segment, select_victim
from repro.fs.lfs import FSConfig, SeroFS
from repro.integrity.fossil import FossilizedIndex
from repro.integrity.venti import NODE_PAYLOAD, VentiStore
from repro.medium.geometry import MediumGeometry
from repro.medium.medium import PatternedMedium
from repro.physics.anisotropy import calibrated_model
from repro.physics.annealing import FilmEnsemble
from repro.physics.constants import AS_GROWN_K
from repro.physics.mfm import detect_bits, healthy_peak_amplitude, scan_dots
from repro.physics.torque import measure_anisotropy_batch
from repro.physics.xrd import high_angle_scan_set, low_angle_scan_set
from repro.security import attacks
from repro.security.analysis import run_attack_matrix, scenario_copy_mask
from repro.workloads.archival import ComplianceArchive
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.traces import record_workload

CHECKS: Dict[str, Callable[[], None]] = {}


def check(exp_id: str):
    """Register the decorated function as the check of ``exp_id``."""
    def register(fn):
        CHECKS[exp_id] = fn
        return fn
    return register


def show(text: str) -> None:
    print("\n" + text)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_artifact(exp_id):
    CHECKS[exp_id]()


# -- Figs 1-3: the bit and the line -------------------------------------

@check("fig1")
def _fig1_readback():
    pitch = 200e-9
    reference = healthy_peak_amplitude()
    rows, peaks = [], {}
    for label, last_heated in (("as written", False),
                               ("last dot heated", True)):
        line = scan_dots([(1, False), (-1, False), (1, last_heated)])
        peaks[label] = [line.peak_at(i * pitch, 0.3 * pitch) / reference
                        for i in range(3)]
        rows.append([label] + [f"{p:+.2f}" for p in peaks[label]]
                    + ["".join(detect_bits(line, 3))])
    show(format_table(
        ["medium state", "peak@dot0", "peak@dot1", "peak@dot2", "detected"],
        rows,
        title="Fig 1 — MFM read-back (peaks normalised to a healthy dot)"))
    # the detected bits are test_physics_mfm.py's Fig 1 cases
    written, heated = peaks["as written"], peaks["last dot heated"]
    # "up, down, up" gives a positive, a negative, a positive peak
    assert [np.sign(p) for p in written] == [1, -1, 1]
    assert all(0.9 < abs(p) < 1.1 for p in written)
    # heating the last dot removes its peak and leaves the others be
    assert abs(heated[2]) < 0.1
    assert heated[:2] == pytest.approx(written[:2], abs=0.01)


@check("fig2")
def _fig2_states():
    geom = MediumGeometry(cols=64, rows=1, dots_per_block=16)

    def state(ops):
        return "H" if ops.medium.is_heated(0) else str(ops.mrb(0))

    rows = []
    for start_bit, op, arg in [(0, "mwb", 1), (1, "mwb", 0), (0, "mwb", 0),
                               (1, "mwb", 1), (0, "ewb", None),
                               (1, "ewb", None)]:
        ops = BitOps(PatternedMedium(geom))
        ops.mwb(0, start_bit)
        before = state(ops)
        if op == "mwb":
            ops.mwb(0, arg)
        else:
            ops.ewb(0)
        rows.append([before, op if arg is None else f"mwb {arg}",
                     state(ops)])
    ops = BitOps(PatternedMedium(geom))
    ops.ewb(0)
    ops.mwb(0, 1)
    rows.append(["H", "mwb 0/1", state(ops)])
    ops.ewb(0)
    rows.append(["H", "ewb", state(ops)])
    reads = sorted({ops.mrb(0) for _ in range(32)})
    rows.append(["H", "mrb", "random " + "/".join(map(str, reads))])
    show(format_table(["state", "operation", "state'"], rows,
                      title="Fig 2 — observed bit state transitions"))
    table = {(r[0], r[1]): r[2] for r in rows}
    # mwb toggling and "no way back" from H are test_device_bitops.py's;
    # random reads of a heated dot are test_medium.py's
    assert table[("0", "ewb")] == table[("1", "ewb")] == "H"
    assert table[("H", "ewb")] == "H"


@check("fig3")
def _fig3_layout():
    device = SERODevice.create(16)
    for pba in range(1, 8):
        device.write_block(pba, bytes([pba]) * 512)
    device.heat_line(0, 8, timestamp=1)
    start, _ = device.geometry.block_span(0)
    heated = device.medium.image_heated(range(start, start + E_REGION_DOTS))
    cells = ["".join("H" if heated[2 * c + k] else "U" for k in (0, 1))
             for c in range(8)]
    n_heated = int(heated.sum())
    rows = [["0", " ".join(cells) + " ...",
             f"hash+meta ({n_heated} H dots of {E_REGION_DOTS})"]]
    data_dots = {}
    for pba in (1, 2, 7):
        s, _ = device.geometry.block_span(pba)
        data_dots[pba] = "".join(device.medium.snapshot_states(s, s + 16))
        rows.append([str(pba), data_dots[pba] + " ...", "512B data"])
    show(format_table(["block", "first dots", "purpose"], rows,
                      title="Fig 3 — heated line layout (N=3)"))
    # block 0 is Manchester: exactly one heated dot per cell ...
    assert all(cell in ("HU", "UH") for cell in cells)
    assert n_heated == E_REGION_DOTS // 2
    # ... and blocks 1..2^N-1 stay ordinary magnetic 0/1 data
    assert not any("H" in dots for dots in data_dots.values())


# -- Figs 7-9: the annealing physics ------------------------------------

def _annealed_with_as_grown(grid_c):
    """An ensemble annealed over ``grid_c``, the as-grown film as
    sample 0."""
    annealed = FilmEnsemble.fresh(grid_c.size).anneal(grid_c, 1800.0)
    return FilmEnsemble(
        sharpness=np.concatenate([[1.0], annealed.sharpness]),
        crystalline_fraction=np.concatenate(
            [[0.0], annealed.crystalline_fraction]))


@check("fig7")
def _fig7_anisotropy():
    paper_c = [25, 300, 400, 500, 600, 700]
    grid_c = np.union1d(np.linspace(25.0, 700.0, 128),
                        np.asarray(paper_c, dtype=float))
    ensemble = FilmEnsemble.fresh(grid_c.size).anneal(grid_c,
                                                      duration_s=1800.0)
    k_true = calibrated_model(AS_GROWN_K).k_eff_array(
        ensemble.sharpness, ensemble.crystalline_fraction)
    points = [(float(t), float(k) / 1e3)
              for t, k in zip(grid_c, measure_anisotropy_batch(k_true))]
    k = dict(points)
    show(format_series("anneal T [C]", "K [kJ/m^3] (torque-curve Fourier)",
                       [(t, k[t]) for t in paper_c],
                       title="Fig 7 — perpendicular anisotropy"))
    # "80 kJ/m^3 ... maintained up to an annealing temperature of
    # 500 C. Above 600 C the value of K drops dramatically."
    assert k[25] == pytest.approx(80.0, abs=2.0)
    assert k[300] > 0.97 * k[25]
    assert k[400] > 0.95 * k[25]
    assert k[500] > 0.9 * k[25]
    assert k[600] < 0.75 * k[25]
    assert k[700] < 0.1 * k[25]
    # the dense grid collapses monotonically through the transition
    window = [v for t, v in points if 500.0 <= t <= 700.0]
    assert all(a >= b - 1e-9 for a, b in zip(window, window[1:]))


def _sampled(scan, n, scale=1.0):
    idx = np.linspace(0, len(scan.two_theta_deg) - 1, n).astype(int)
    return [(round(float(scan.two_theta_deg[i]), 1),
             float(scan.intensity[i]) / scale) for i in idx]


@check("fig8")
def _fig8_low_angle_xrd():
    scans = low_angle_scan_set(
        _annealed_with_as_grown(np.linspace(100.0, 700.0, 61)))
    as_grown, annealed = scans.scan(0), scans.scan(len(scans) - 1)
    scale = as_grown.intensity.max()
    show(format_series("2theta [deg]", "I/I_max (as grown)",
                       _sampled(as_grown, 16, scale),
                       title="Fig 8 — low-angle XRD, as grown"))
    show(format_series("2theta [deg]", "I/I_max (annealed, same scale)",
                       _sampled(annealed, 16, scale),
                       title="Fig 8 — low-angle XRD, annealed 700 C"))
    # the peak near 8 deg and its disappearance at 700 C are
    # test_physics_xrd.py's; here: how far and how steadily it goes
    ratio = annealed.peak_intensity(6, 10) / as_grown.peak_intensity(6, 10)
    assert ratio < 1e-3
    peaks = [scans.scan(i).peak_intensity(6, 10)
             for i in range(1, len(scans))]
    assert all(a >= b - 1e-12 * scale for a, b in zip(peaks, peaks[1:]))


@check("fig9")
def _fig9_high_angle_xrd():
    scans = high_angle_scan_set(
        _annealed_with_as_grown(np.linspace(100.0, 700.0, 61)))
    as_grown, annealed = scans.scan(0), scans.scan(len(scans) - 1)
    show(format_series("2theta [deg]", "I (as grown)", _sampled(as_grown, 18),
                       title="Fig 9 — high-angle XRD, as grown"))
    show(format_series("2theta [deg]", "I (annealed)", _sampled(annealed, 18),
                       title="Fig 9 — high-angle XRD, annealed 700 C"))
    # the CoPt (111) peak position, 41.7 deg, is test_physics_xrd.py's
    window = (40.5, 43.0)
    assert annealed.peak_intensity(*window) > \
        20 * as_grown.peak_intensity(*window)
    # it grows monotonically with anneal temperature (small slack: the
    # broad multilayer humps fade before the crystal peak dominates)
    peaks = [scans.scan(i).peak_intensity(*window)
             for i in range(1, len(scans))]
    assert all(b >= a * (1.0 - 1e-4) for a, b in zip(peaks, peaks[1:]))


# -- Section 3: what the operations cost --------------------------------

@check("sec3-erb")
def _sec3_operation_costs():
    timing = TimingModel()
    show(format_table(
        ["operation", "latency [us/bit]", "x mrb"],
        [["mrb", timing.t_mrb * 1e6, 1.0],
         ["mwb", timing.t_mwb * 1e6, timing.t_mwb / timing.t_mrb],
         ["erb (5-step)", timing.t_erb * 1e6, timing.t_erb / timing.t_mrb],
         ["erb (direct in-plane, ablation)", timing.t_mrb * 1e6, 1.0],
         ["ewb", timing.t_ewb * 1e6, timing.t_ewb / timing.t_mrb]],
        title="Section 3 — bit operation cost structure"))
    # "at least 5 times slower" and ewb >> mwb are test_device_timing.py's

    device = SERODevice.create(32)
    for pba in range(1, 4):
        device.write_block(pba, bytes([pba]) * 512)
    elapsed = {}
    for name, op in (("mrs (sector read)", lambda: device.read_block(1)),
                     ("mws (sector write)",
                      lambda: device.write_block(5, b"\x00" * 512)),
                     ("heat_line (4 blocks)", lambda: device.heat_line(0, 4)),
                     ("verify_line (4 blocks)",
                      lambda: device.verify_line(0))):
        device.account.reset()
        op()
        elapsed[name] = device.account.elapsed
    mrs = elapsed["mrs (sector read)"]
    show(format_table(
        ["operation", "latency [ms]", "x mrs"],
        [[name, t * 1e3, t / mrs] for name, t in elapsed.items()],
        title="Section 3 — sector operation costs"))
    # the WO operation costs far more than ordinary I/O even on a tiny
    # 4-block line: use it sparingly
    assert elapsed["heat_line (4 blocks)"] > \
        2 * elapsed["mws (sector write)"]


@check("sec3-heat")
def _sec3_heat_line_overhead():
    rows = []
    for n_log2 in range(1, 7):
        n_blocks = 1 << n_log2
        device = SERODevice.create(max(2 * n_blocks, 16))
        for pba in range(1, n_blocks):
            device.write_block(pba, bytes([pba & 0xFF]) * 512)
        device.account.reset()
        device.heat_line(0, n_blocks, timestamp=1)
        heat_s = device.account.elapsed
        rows.append([f"2^{n_log2}", n_blocks, 100.0 / n_blocks,
                     round(heat_s * 1e3, 2),
                     round(heat_s * 1e6 / ((n_blocks - 1) * 512), 2)])
    show(format_table(
        ["line", "blocks", "space overhead [%]", "heat time [ms]",
         "heat cost [us/byte]"],
        rows, title="Sections 3/8 — heat-line overhead vs N"))
    # "the amount of space wasted is negligible (1 block out of 2^N)"
    overheads = [r[2] for r in rows]
    assert all(b == a / 2 for a, b in zip(overheads, overheads[1:]))
    # while the WO time per protected byte amortises with N
    assert rows[-1][4] < rows[0][4] / 3


# -- Section 4: file systems on SERO ------------------------------------

def _age(trace, policy: str, placement: str) -> dict:
    fs = SeroFS.format(SERODevice.create(1024),
                       FSConfig(cleaner_policy=policy,
                                heat_placement=placement, auto_clean=False))
    trace.replay(fs, ignore_errors=True)
    heated_victims = reclaimed = 0
    for _ in range(6):
        victim = select_victim(fs, policy=policy)
        if victim is None:
            break
        heated_victims += victim.heated > 0
        reclaimed += clean_segment(fs, victim)
    report = bimodality(fs)
    return {"reclaimed": reclaimed, "heated_victims": heated_victims,
            "bimodality": report.index, "mixed": report.mixed}


@check("sec4-lfs")
def _sec4_lfs():
    trace = record_workload(SyntheticWorkload(
        n_files=14, n_ops=130, mean_size=700, p_heat=0.2, p_delete=0.02,
        seed=2008))
    # the stress case: *naive* placement mixes heated lines into the log
    naive = {policy: _age(trace, policy, "naive")
             for policy in ("greedy", "cost-benefit", "sero")}
    show(format_table(
        ["cleaner policy", "blocks reclaimed", "heated victims",
         "bimodality"],
        [[p, r["reclaimed"], r["heated_victims"], round(r["bimodality"], 3)]
         for p, r in naive.items()],
        title="Section 4.1 — cleaner policies under a heating workload "
              "(naive placement stress case)"))
    sero, blind = naive["sero"], (naive["greedy"], naive["cost-benefit"])
    # the SERO cleaner "skips over heated segments" and still reclaims
    # at least as much as the heat-blind policies, which waste passes
    # on segments they can never fully free
    assert sero["heated_victims"] == 0
    assert sero["reclaimed"] >= max(r["reclaimed"] for r in blind) > 0
    assert sum(r["heated_victims"] for r in blind) > 0

    placement = {"cluster": _age(trace, "sero", "cluster"), "naive": sero}
    show(format_table(
        ["heat placement", "bimodality index", "mixed segments"],
        [[p, round(r["bimodality"], 3), r["mixed"]]
         for p, r in placement.items()],
        title="Section 4.1 — heated-line placement and bimodality"))
    assert placement["cluster"]["bimodality"] >= \
        placement["naive"]["bimodality"]
    assert placement["cluster"]["mixed"] <= placement["naive"]["mixed"]

    # the Rosenblum/Ousterhout premise the design rests on
    fs = SeroFS.format(SERODevice.create(512))
    fs.device.account.reset()
    fs.create("/seq", b"x" * (30 * 512))
    seq_s = fs.device.account.elapsed
    pointers, _ = fs._load_pointers(fs._read_inode(fs.stat("/seq").ino))
    rng = random.Random(1)
    fs.device.account.reset()
    for _ in range(30):
        fs.device.read_block(rng.choice(pointers))
    rand_s = fs.device.account.elapsed
    show(format_table(
        ["access pattern", "device time [ms] (30 blocks)"],
        [["clustered log write", round(seq_s * 1e3, 2)],
         ["random block reads", round(rand_s * 1e3, 2)]],
        title="Section 4.1 — why the FS clusters writes"))
    assert rand_s > 2 * seq_s


@check("sec4-venti")
def _sec4_venti():
    rows = []
    for size in (400, 4_000, 40_000, 200_000):
        device = SERODevice.create(2048)
        store = VentiStore(device, arena_start=16, arena_blocks=2000)
        data = np.random.default_rng(size).integers(
            0, 256, size, dtype=np.uint8).tobytes()
        heated_before = device.heated_block_count()
        root = store.snapshot("audit", data, timestamp=1)
        verified = (store.read_stream(root) == data
                    and store.verify_tree(root) == []
                    and store.verify_sealed(root).status
                    is VerifyStatus.INTACT)
        rows.append([size, len(store._index),
                     device.heated_block_count() - heated_before, verified])
    show(format_table(
        ["archive bytes", "tree nodes", "heated blocks for seal", "verified"],
        rows, title="Section 4.2 — Venti snapshots: seal cost is O(1)"))
    assert all(r[3] for r in rows)
    # the WO cost does not grow with the archive while the tree does
    assert len({r[2] for r in rows}) == 1
    assert rows[-1][1] > rows[0][1]

    device = SERODevice.create(512)
    store = VentiStore(device, arena_start=16, arena_blocks=480)
    data = b"ledger row " * 400
    root = store.snapshot("day-1", data, timestamp=1)
    pba, _ = store._index[store.put(data[:NODE_PAYLOAD])]
    device.write_block(pba, b"\x00" * 512)
    flagged = len(store.verify_tree(root))
    show(format_table(
        ["scenario", "nodes flagged"],
        [["leaf overwritten under a sealed snapshot root", flagged]],
        title="Section 4.2 — tampering below a sealed root is caught"))
    assert flagged >= 1


@check("sec4-fossil")
def _sec4_fossil():
    index = FossilizedIndex(SERODevice.create(4096), arena_start=16,
                            arena_blocks=4000)
    inserted, rows = [], []
    for target in (8, 32, 128, 256):
        while len(inserted) < target:
            digest = sha256_digest(len(inserted).to_bytes(4, "big"))
            index.insert(digest)
            inserted.append(digest)
        verified = (all(index.contains(h) for h in inserted)
                    and all(r.status is VerifyStatus.INTACT
                            for r in index.verify_sealed().values()))
        rows.append([target, index.node_count, len(index.sealed_nodes),
                     verified])
    show(format_table(
        ["records", "nodes", "sealed (heated) nodes", "verified"],
        rows, title="Section 4.2 — fossilised index growth"))
    assert all(r[3] for r in rows)
    sealed = [r[2] for r in rows]
    # full nodes seal, and sealing is irreversible, so it only grows
    assert sealed[-1] > 0
    assert sealed == sorted(sealed)


# -- Section 5: the security case matrix --------------------------------

@check("sec5")
def _sec5_attack_matrix():
    report = run_attack_matrix()
    rows = [list(r) for r in report.rows()]
    show(format_table(
        ["attack", "paper predicts", "matches", "verify status"], rows,
        title="Section 5 — security case matrix"))
    # each scenario's own verdict is test_security.py's; here: the
    # matrix holds all ten of the paper's cases and all match
    assert len(rows) == 10
    assert report.all_achieved, [r for r in rows if r[2] != "yes"]

    with_addr = scenario_copy_mask(include_addresses=True)
    without_addr = scenario_copy_mask(include_addresses=False)
    show(format_table(
        ["hash construction", "copy distinguishable from original?"],
        [["with physical addresses (paper)",
          "yes" if with_addr.achieved else "NO"],
         ["without addresses (ablation)",
          "no — attack succeeds" if without_addr.achieved else "?"]],
        title="include_addresses ablation — why addresses belong in the "
              "hash"))
    # both outcomes are test_security.py's ablation test


# -- Section 8: lifetime and coding -------------------------------------

@check("sec8-life")
def _sec8_lifetime():
    device = SERODevice.create(1024)
    archive = ComplianceArchive(SeroFS.format(device), batch_bytes=3000)
    series = []
    period = 0
    while True:
        try:
            archive.run_period(period)
        except NoSpaceError:
            break
        if period % 5 == 0:
            series.append(
                (period, device.capacity_report()["writable_blocks"]))
        period += 1
    final = device.capacity_report()
    audits = archive.audit()
    intact = sum(r.status is VerifyStatus.INTACT for r in audits.values())
    show(format_series("period", "writable (WMRM) blocks", series,
                       title="Section 8 — WMRM area over device life"))
    show(format_table(
        ["metric", "value"],
        [["periods until full", period],
         ["final writable blocks", final["writable_blocks"]],
         ["final heated (RO) blocks", final["heated_blocks"]],
         ["sealed batches still verifiable", intact],
         ["sealed batches total", len(audits)]],
        title="Section 8 — end-of-life accounting"))
    # "the read/write area gradually shrinks, and the read-only area
    # grows, until the device has become a pure read-only device"
    writable = [w for _p, w in series]
    assert all(a >= b for a, b in zip(writable, writable[1:]))
    assert final["heated_blocks"] > final["writable_blocks"]
    assert period > 20
    # and every sealed batch stays verifiable to the end
    assert intact == len(audits)


@check("sec8-wom")
def _sec8_wom():
    bits = bytes_to_bits(sha256_digest(b"the line hash"))
    manchester_dots = len(manchester.encode_bits(bits))
    wom_dots = len(wom.encode_bits(bits))
    show(format_table(
        ["code", "dots for 256-bit hash", "dots/bit", "write generations",
         "tamper-evident"],
        [["Manchester (paper)", manchester_dots,
          manchester_dots / len(bits), 1, "yes (HH)"],
         ["Rivest-Shamir WOM", wom_dots, wom_dots / len(bits), 2,
          "yes (invalid word)"]],
        title="Section 8 — hash-block coding comparison"))
    # "we could employ more efficient coding techniques": 384 vs 512
    # dots; the second write generation is test_crypto_wom.py's
    assert wom_dots == 0.75 * manchester_dots


# -- Section 9: emulator validation -------------------------------------

@check("sec9-emu")
def _sec9_emulator():
    def scenario(device):
        for pba in range(1, 8):
            device.write_block(pba, bytes([pba]) * 512)
        record = device.heat_line(0, 8, timestamp=1)
        verdicts = [("after heat", device.verify_line(0).status.value)]
        if isinstance(device, AntifuseSEROEmulator):
            device.tamper_rewrite_data(3, b"FORGED")
        else:
            attacks.mwb_data(device, 0, target_offset=3, forged=b"FORGED")
        verdicts.append(("after data rewrite",
                         device.verify_line(0).status.value))
        return record.line_hash, verdicts

    sim_hash, sim_verdicts = scenario(SERODevice.create(64))
    emu_hash, emu_verdicts = scenario(AntifuseSEROEmulator(total_blocks=64))
    rows = [[stage, sim, emu, "yes" if sim == emu else "NO"]
            for (stage, sim), (_stage, emu) in zip(sim_verdicts,
                                                   emu_verdicts)]
    rows.append(["line hash", sim_hash.hex()[:12] + "…",
                 emu_hash.hex()[:12] + "…",
                 "yes" if sim_hash == emu_hash else "NO"])
    show(format_table(
        ["stage", "patterned-medium simulator", "anti-fuse emulator",
         "agree"],
        rows, title="Section 9 — emulator cross-validation"))
    # "a time-accurate emulator ... to validate the simulation results":
    # the two agree on every verdict and on the 8-block line's hash
    assert [r[3] for r in rows] == ["yes"] * 3

    rows = []
    for action in ("none", "ewb tamper", "shred"):
        device = SERODevice.create(32)
        for pba in range(1, 4):
            device.write_block(pba, b"\x33" * 512)
        device.heat_line(0, 4)
        if action == "ewb tamper":
            attacks.ewb_data(device, 0, n_dots=64)
        elif action == "shred":
            shred_line(device, 0)
        rows.append([action, classify_destroyed_line(device, 0),
                     device.verify_line(0).status.value])
    show(format_table(["action", "classification", "verify status"], rows,
                      title="Section 8 — shred is loud and distinguishable"))
    # the classifications are test_device_shred.py's
