"""Plain-text rendering: aligned tables, ASCII charts, CSV dumps.

No matplotlib in this environment, so figures are emitted as (a) CSV
series written next to the benchmarks and (b) compact ASCII charts so
the *shape* of every curve is visible directly in benchmark output.
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.validation import require

__all__ = ["ascii_chart", "format_table", "write_csv"]


def format_table(headers: list[str], rows: list[list[object]], *, title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    require(bool(headers), "need headers")
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in cells)) if cells else len(headers[j])
        for j in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 1000 or (abs(cell) < 1e-3 and cell != 0):
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)


#: Rows and columns of an :func:`ascii_chart` plot area.
_CHART_HEIGHT = 14
_CHART_WIDTH = 72


def ascii_chart(
    series: dict[str, np.ndarray],
    *,
    title: str = "",
    x_label: str = "round",
) -> str:
    """Multi-series ASCII line chart (one glyph per series).

    Series are resampled onto the chart's columns; NaN segments are left
    blank, so curves that end early (failed runs) visibly stop.
    """
    require(bool(series), "need at least one series")
    glyphs = "*o+x#@%&"
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    finite = all_vals[np.isfinite(all_vals)]
    require(finite.size > 0, "series contain no finite values")
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    grid = [[" "] * _CHART_WIDTH for _ in range(_CHART_HEIGHT)]
    max_len = max(len(np.asarray(v)) for v in series.values())
    for s_idx, (name, values) in enumerate(series.items()):
        values = np.asarray(values, dtype=float)
        glyph = glyphs[s_idx % len(glyphs)]
        for col in range(_CHART_WIDTH):
            src = int(round(col * (max_len - 1) / (_CHART_WIDTH - 1)))
            if src >= len(values) or not np.isfinite(values[src]):
                continue
            frac = (values[src] - lo) / (hi - lo)
            row = _CHART_HEIGHT - 1 - int(round(frac * (_CHART_HEIGHT - 1)))
            grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append(f"  {hi:.4g}".rjust(10))
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append(f"  {lo:.4g}".rjust(10) + "  " + "-" * (_CHART_WIDTH - 8) + f"> {x_label}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series)
    )
    lines.append("  " + legend)
    return "\n".join(lines)


def write_csv(
    path: str, headers: list[str], columns: list[np.ndarray] | list[list[object]]
) -> str:
    """Write column-oriented data as CSV, creating parent directories."""
    require(len(headers) == len(columns), "headers/columns mismatch")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    n = max(len(np.atleast_1d(c)) for c in columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(headers) + "\n")
        for i in range(n):
            row = []
            for col in columns:
                col = np.atleast_1d(col)
                row.append(_fmt(col[i]) if i < len(col) else "")
            fh.write(",".join(str(x) for x in row) + "\n")
    return path
