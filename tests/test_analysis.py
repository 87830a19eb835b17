"""Report-formatting and experiment-registry tests."""

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.report import format_series, format_table
from test_paper import CHECKS


def test_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["longer", 22.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) or "-" in line for line in lines)


def test_table_title():
    text = format_table(["x"], [[1]], title="Table 1")
    assert text.startswith("Table 1")


def test_series_bars_scale():
    text = format_series("T", "K", [(100, 10.0), (200, 5.0)])
    lines = text.splitlines()
    assert lines[1].count("#") == 2 * lines[2].count("#")


def test_series_handles_zeros():
    text = format_series("x", "y", [(1, 0.0), (2, 0.0)])
    assert "#" not in text


def test_float_formatting():
    text = format_table(["v"], [[1.23456789e-9], [123456.789], [1.5]])
    assert "e-09" in text or "1.235e-09" in text


def test_registry_covers_all_paper_artifacts():
    ids = set(EXPERIMENTS)
    assert {"fig1", "fig2", "fig3", "fig7", "fig8", "fig9",
            "sec3-erb", "sec3-heat", "sec4-lfs", "sec4-venti",
            "sec4-fossil", "sec5", "sec8-life", "sec8-wom",
            "sec9-emu"} <= ids
    # neither side can gain an artifact without the other
    assert set(CHECKS) == ids


def test_registry_entries_complete():
    for exp_id, exp in EXPERIMENTS.items():
        assert exp.exp_id == exp_id
        assert callable(CHECKS[exp_id])
        assert exp.expected_shape
        assert exp.artifact
