"""Experiment registry: one entry per paper artifact.

The registry binds each experiment id (figure / section) to a
one-line statement of the expected *shape* — the reproduction target.
Each id also names the test that regenerates the artifact, prints its
table and asserts that shape:
``tests/test_paper.py::test_artifact[<exp_id>]`` (run it with ``-s``
to see the tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Experiment:
    """One paper artifact to reproduce."""

    exp_id: str
    artifact: str
    expected_shape: str


EXPERIMENTS: Dict[str, Experiment] = {
    exp.exp_id: exp for exp in (
        Experiment(
            "fig1", "Read-back signal over magnetised and destroyed dots",
            "up/down dots give +/- peaks; heated dot's peak disappears"),
        Experiment(
            "fig2", "Bit state-transition diagram",
            "mwb toggles 0<->1; ewb is one-way into H; mwb/mrb on H is "
            "ineffective/random"),
        Experiment(
            "fig3", "Heated-line medium layout",
            "block 0 = Manchester HU/UH cells (hash+meta), blocks "
            "1..2^N-1 = ordinary 0/1 data"),
        Experiment(
            "fig7", "Perpendicular anisotropy vs annealing temperature",
            "K ~ 80 kJ/m^3 flat up to 500 C, collapses above 600 C"),
        Experiment(
            "fig8", "Low-angle XRD, as-grown vs annealed",
            "superlattice peak near 2theta = 8 deg vanishes after a "
            "700 C anneal"),
        Experiment(
            "fig9", "High-angle XRD, as-grown vs annealed",
            "sharp fct CoPt (111) peak at 41.7 deg appears after anneal"),
        Experiment(
            "sec3-erb", "erb/ewb cost structure",
            "erb costs exactly 5 bit-ops (>= 5x mrb); ewb ~100x mwb"),
        Experiment(
            "sec3-heat", "Heat-line overhead vs line size",
            "space overhead = 1/2^N; heat cost amortises with N"),
        Experiment(
            "sec4-lfs", "Cleaner policies and bimodality under aging",
            "SERO-aware cleaning beats heat-blind policies as heated "
            "fraction grows; cluster placement keeps bimodality ~1"),
        Experiment(
            "sec4-venti", "Venti hierarchy with heated roots",
            "sealing the root protects the whole tree; per-snapshot WO "
            "cost is O(1) lines"),
        Experiment(
            "sec4-fossil", "Fossilised index",
            "nodes seal as they fill; lookups stay deterministic; "
            "sealed nodes verify INTACT"),
        Experiment(
            "sec5", "Security case matrix",
            "all Section 5 attacks detected/harmless/rejected/recovered "
            "as the paper claims"),
        Experiment(
            "sec8-life", "Device lifetime under compliance load",
            "WMRM area shrinks monotonically to zero; device ends life "
            "read-only"),
        Experiment(
            "sec8-wom", "Manchester vs WOM hash coding",
            "WOM code stores the hash in 3/4 of the Manchester dots"),
        Experiment(
            "sec9-emu", "Anti-fuse emulator cross-validation + shred",
            "emulator and simulator agree on hashes and verdicts; "
            "shredded lines are distinguishable from tampered ones"),
    )
}
