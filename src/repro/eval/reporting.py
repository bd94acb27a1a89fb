"""Plain-text reporting of experiment series.

Benchmarks print the series that each paper figure plots; these helpers
format them as aligned tables so the benchmark output is directly readable
and can be quoted in ``docs/REPRODUCTION.md``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series_table"]


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e4 or (abs(value) < 1e-3 and value != 0.0):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Format rows into an aligned, pipe-separated text table."""
    rendered_rows = [
        [_format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Format a figure-style result: one x column plus one column per curve."""
    headers = [x_label, *series.keys()]
    rows = []
    for index, x_value in enumerate(x_values):
        row: list[object] = [x_value]
        for values in series.values():
            row.append(values[index] if index < len(values) else float("nan"))
        rows.append(row)
    return format_table(headers, rows, precision=precision, title=title)
