"""Plain-text rendering of experiment tables and cactus plots.

The paper's figures are line plots (Figure 5: time vs #solved; Figure 6:
log-scale bars). We regenerate the underlying series and render them as
aligned text tables plus ASCII cactus plots, and optionally dump CSV for
external plotting.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from pathlib import Path


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    """A fixed-width aligned table."""
    columns = [
        [str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    out = io.StringIO()
    if title:
        out.write(f"== {title} ==\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        out.write(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) + "\n"
        )
    return out.getvalue()


def cactus_series(times: Sequence[float]) -> list[tuple[float, int]]:
    """(time, #solved-by-that-time) points from per-instance solve times."""
    ordered = sorted(times)
    return [(t, i + 1) for i, t in enumerate(ordered)]


def render_cactus(
    series: dict[str, Sequence[float]],
    time_limit: float,
    total: int,
    title: str,
) -> str:
    """ASCII rendition of a Figure 5 panel: x = time, y = #solved."""
    width, height = 60, 12
    out = io.StringIO()
    out.write(f"== {title} (limit {time_limit:g}s, {total} instances) ==\n")
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@"
    for index, (label, times) in enumerate(sorted(series.items())):
        marker = markers[index % len(markers)]
        for t, solved in cactus_series(times):
            if t > time_limit:
                continue
            x = min(width - 1, int(t / time_limit * (width - 1)))
            y = min(height - 1, int((solved / max(1, total)) * (height - 1)))
            grid[height - 1 - y][x] = marker
    for row in grid:
        out.write("|" + "".join(row) + "\n")
    out.write("+" + "-" * width + "\n")
    out.write(f" 0s{' ' * (width - 10)}{time_limit:g}s\n")
    for index, (label, times) in enumerate(sorted(series.items())):
        solved = sum(1 for t in times if t <= time_limit)
        out.write(
            f"  {markers[index % len(markers)]} {label}: "
            f"{solved}/{total} solved\n"
        )
    return out.getvalue()


def write_csv(path: str | Path, headers: Sequence[str], rows: Sequence[Sequence]):
    """Dump rows as CSV for external plotting tools."""
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n")
