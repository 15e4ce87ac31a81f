"""ASCII report tables for the CLI's ``evaluate`` / ``lab`` verbs and the
examples."""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width table.

    Floats are formatted with ``float_format``; everything else with
    ``str``.  Columns are sized to their widest cell.
    """
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    body: List[List[str]] = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

