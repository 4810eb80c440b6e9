"""Paper-style table formatting for bench output."""

from __future__ import annotations

from typing import Any, Optional, Sequence


def format_cell(value: Any) -> str:
    """One table cell: floats to about three significant digits, a
    list as its bracketed cells, anything else as ``str``."""
    if isinstance(value, list):
        return f"[{', '.join(format_cell(item) for item in value)}]"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Fixed-width ASCII table, right-aligned numbers."""
    rendered = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
