"""Section 5 — the complete security case matrix.

Runs every attack scenario of the Section 5 analysis and prints the
case table the paper walks through in prose, plus the address-binding
ablation (``test_address_binding_ablation`` below): without physical
addresses in the line hash the copy-masking attack succeeds.
"""

from repro.analysis.report import format_table
from repro.security.analysis import run_attack_matrix, scenario_copy_mask


def test_section5_matrix(benchmark, show):
    report = benchmark.pedantic(run_attack_matrix, rounds=1, iterations=1)
    rows = [list(r) for r in report.rows()]
    show(format_table(
        ["attack", "paper predicts", "matches", "verify status"],
        rows, title="Section 5 — security case matrix"))
    assert report.all_achieved, [r for r in rows if r[2] != "yes"]
    assert len(rows) == 10


def test_address_binding_ablation(benchmark, show):
    def both():
        return (scenario_copy_mask(include_addresses=True),
                scenario_copy_mask(include_addresses=False))

    with_addr, without_addr = benchmark.pedantic(both, rounds=1, iterations=1)
    show(format_table(
        ["hash construction", "copy distinguishable from original?"],
        [["with physical addresses (paper)",
          "yes" if with_addr.achieved else "NO"],
         ["without addresses (ablation)",
          "no — attack succeeds" if without_addr.achieved else "?"]],
        title="include_addresses ablation — why addresses belong in "
              "the hash"))
    assert with_addr.achieved and without_addr.achieved
