"""E2 — Figure 5 panel 1: SFLL-HD0, SAT attack vs AnalyzeUnateness.

Expected shape (paper §VI-B): AnalyzeUnateness defeats nearly every
circuit quickly; the SAT attack lags or times out as circuits grow.
"""

from __future__ import annotations

from repro.experiments.fig5 import run_panel
from repro.experiments.report import render_cactus


def test_fig5_hd0(benchmark, scale):
    result = benchmark.pedantic(
        run_panel, args=("hd0", scale), iterations=1, rounds=1
    )
    print()
    print(
        render_cactus(
            result.series,
            scale.time_limit,
            result.total,
            title="Figure 5: SFLL-HD0",
        )
    )
    unateness_solved = len(result.series["AnalyzeUnateness"])
    # The functional analysis must defeat at least as many circuits as
    # the SAT attack, and must defeat most of the suite.
    assert unateness_solved >= len(result.series["SAT-Attack"]) or result.total <= 2
    assert unateness_solved >= result.total // 2
