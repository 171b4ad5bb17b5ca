"""E1 — Table I: benchmark statistics, original vs SFLL gate counts.

Regenerates the paper's Table I over the benchmark scale's profiles.
The timed kernel is suite construction (generate + lock + strash),
which is the fixed cost every other experiment pays per cell.
"""

from __future__ import annotations

from repro.experiments.table1 import HEADERS, table1_rows
from repro.experiments.report import render_table


def test_table1(benchmark, scale):
    profiles = scale.profiles()[:3]
    rows = benchmark.pedantic(
        table1_rows, args=(profiles,), iterations=1, rounds=1
    )
    print()
    print(render_table(HEADERS, rows, title="Table I (reproduced)"))
    assert len(rows) == len(profiles)
    for row in rows:
        name, n_in, n_out, keys, gates, lo, hi = row
        assert lo <= hi
        # SFLL adds the stripped-functionality + restoration logic, so
        # locked netlists are strictly larger than the original.
        assert lo > gates * 0.5
        assert hi > gates
