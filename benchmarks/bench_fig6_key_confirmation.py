"""E6 — Figure 6: key confirmation vs SAT attack mean execution times.

Expected shape: key confirmation succeeds on every circuit and is much
faster than the SAT attack (which mostly times out on SFLL variants).
"""

from __future__ import annotations

from repro.experiments.fig6 import HEADERS, run_fig6
from repro.experiments.report import render_table


def test_fig6(benchmark, scale):
    rows = benchmark.pedantic(run_fig6, args=(scale,), iterations=1, rounds=1)
    print()
    print(
        render_table(
            HEADERS,
            [row.row() for row in rows],
            title="Figure 6 (reproduced)",
        )
    )
    assert rows
    total_conf = sum(row.confirmation_successes for row in rows)
    total_sat = sum(row.sat_successes for row in rows)
    # Key confirmation must succeed at least as often as the SAT attack.
    assert total_conf >= total_sat
    # And be faster on average across the suite.
    mean_conf = sum(row.confirmation_mean for row in rows) / len(rows)
    mean_sat = sum(row.sat_mean for row in rows) / len(rows)
    assert mean_conf <= mean_sat * 1.5
