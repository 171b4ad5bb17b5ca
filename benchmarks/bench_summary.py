"""E7 — §VI-B headline statistics: defeat rate and unique-key rate.

Paper numbers: 65/80 defeated (81%); unique key for 58/65 (90%) of the
defeats, i.e. oracle-less success for most of the suite.
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.experiments.summary import run_summary


def test_summary(benchmark, scale):
    stats = benchmark.pedantic(run_summary, args=(scale,), iterations=1, rounds=1)
    print()
    print(
        render_table(
            ("metric", "ours", "paper"),
            [
                ("defeated", f"{stats.defeated}/{stats.total}", "65/80"),
                ("defeat rate", f"{stats.defeat_rate:.0%}", "81%"),
                (
                    "unique key among defeats",
                    f"{stats.unique_key}/{stats.defeated}",
                    "58/65",
                ),
                ("unique-key rate", f"{stats.unique_rate:.0%}", "90%"),
                ("complement pairs", stats.complement_pairs, "4"),
            ],
            title="Headline statistics",
        )
    )
    assert stats.total > 0
    # The attack must defeat a clear majority of the suite, and most
    # defeats must shortlist a unique key (the paper's 81% / 90%).
    assert stats.defeat_rate >= 0.5
    if stats.defeated:
        assert stats.unique_rate >= 0.5
