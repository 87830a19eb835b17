"""Plain-text tables and series for the paper-artifact checks.

``tests/test_paper.py`` prints "the same rows/series the paper
reports"; these helpers keep the formatting consistent and
dependency-free.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(x_label: str, y_label: str,
                  points: Iterable[Sequence], title: Optional[str] = None,
                  bar_width: int = 40) -> str:
    """Render an (x, y) series with a proportional ASCII bar per row."""
    pts = [(str(_fmt(x)), float(y)) for x, y in points]
    peak = max((abs(y) for _x, y in pts), default=1.0) or 1.0
    xw = max([len(x_label)] + [len(x) for x, _y in pts])
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{x_label.ljust(xw)} | {y_label}")
    for x, y in pts:
        bar = "#" * int(round(abs(y) / peak * bar_width))
        lines.append(f"{x.ljust(xw)} | {_fmt(y):>12} {bar}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
