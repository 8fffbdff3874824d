"""Plain-text rendering of experiment results as aligned tables.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent across experiments.
"""

from __future__ import annotations

__all__ = ["render_table", "format_value"]


def format_value(v, floatfmt=".2f"):
    if isinstance(v, float):
        return format(v, floatfmt)
    return str(v)


def render_table(headers, rows, title=None, floatfmt=".2f"):
    """Render an aligned ASCII table."""
    str_rows = [[format_value(v, floatfmt) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

