"""E4 — Figure 5 panel 3: SFLL-HD h=m/4 — SAT vs SlidingWindow vs Distance2H.

Expected shape: Distance2H still defeats everything (4h = m is its
applicability boundary); SlidingWindow degrades (harder HD-2h queries);
the SAT attack fails on most circuits.
"""

from __future__ import annotations

from repro.experiments.fig5 import run_panel
from repro.experiments.report import render_cactus


def test_fig5_h_m4(benchmark, scale):
    result = benchmark.pedantic(
        run_panel, args=("m/4", scale), iterations=1, rounds=1
    )
    print()
    print(
        render_cactus(
            result.series,
            scale.time_limit,
            result.total,
            title="Figure 5: SFLL-HD h=m/4",
        )
    )
    assert len(result.series["Distance2H"]) >= len(result.series["SAT-Attack"])
