"""E5 — Figure 5 panel 4: SFLL-HD h=m/3 — SAT vs SlidingWindow.

Distance2H is inapplicable here (4h > m, paper §IV-B3). Expected shape:
SlidingWindow solves part of the suite (its HD-2h SAT queries get harder
with h — §VI-B); the SAT attack fails on most circuits.
"""

from __future__ import annotations

from repro.experiments.fig5 import run_panel
from repro.experiments.report import render_cactus


def test_fig5_h_m3(benchmark, scale):
    result = benchmark.pedantic(
        run_panel, args=("m/3", scale), iterations=1, rounds=1
    )
    print()
    print(
        render_cactus(
            result.series,
            scale.time_limit,
            result.total,
            title="Figure 5: SFLL-HD h=m/3",
        )
    )
    # Distance2H must not appear in this panel at all.
    assert "Distance2H" not in result.series
