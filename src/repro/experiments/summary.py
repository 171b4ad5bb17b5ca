"""Headline statistics reproduction (paper §VI-B).

The numbers the paper leads with:

- 65 / 80 locked circuits defeated (81%),
- a unique key shortlisted for 58 of the 65 (90%) — i.e. oracle-less
  success,
- complement-pair shortlists on a few circuits,
- occasional large shortlists (c432: 36 keys) that key confirmation
  still resolves.

This module sweeps the full (circuit × h) grid with the complete FALL
pipeline and tabulates the same statistics for our suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.results import AttackStatus
from repro.experiments.profiles import H_LABELS, Scale
from repro.experiments.report import render_table, write_csv
from repro.experiments.runner import RunRecord, SuiteTask, run_suite
from repro.utils.bitops import complement_bits


@dataclass
class SummaryStats:
    records: list[RunRecord] = field(default_factory=list)
    total: int = 0
    defeated: int = 0
    unique_key: int = 0
    complement_pairs: int = 0
    multi_key: int = 0
    timeouts: int = 0

    @property
    def defeat_rate(self) -> float:
        return self.defeated / self.total if self.total else 0.0

    @property
    def unique_rate(self) -> float:
        return self.unique_key / self.defeated if self.defeated else 0.0


def run_summary(scale: Scale, jobs: int | None = None) -> SummaryStats:
    """Sweep the grid with oracle-less FALL and fold the records into
    headline statistics.

    ``jobs`` spreads the (circuit × h) cells across worker processes
    (``None`` = every usable core); every cell is seeded independently
    and the records are merged in grid order, so the summary is
    identical for every worker count — up to wall-clock effects: timing
    fields always vary, and a cell running close to its time limit can
    cross it under heavy oversubscription. Keep ``jobs`` at or below the
    core count when timeout classifications matter.
    """
    tasks = [
        SuiteTask(profile=profile, h_label=label, time_limit=scale.time_limit)
        for profile in scale.profiles()
        for label in H_LABELS
    ]
    stats = SummaryStats()
    for record in run_suite(tasks, jobs=jobs):
        stats.records.append(record)
        stats.total += 1
        if record.status is AttackStatus.TIMEOUT:
            stats.timeouts += 1
        if record.solved:
            stats.defeated += 1
            if record.shortlist_size <= 1:
                stats.unique_key += 1
            else:
                stats.multi_key += 1
                if record.shortlist_size == 2:
                    stats.complement_pairs += _is_complement_pair(record)
    return stats


def _is_complement_pair(record: RunRecord) -> bool:
    candidates = record.details.get("candidate_keys")
    if not candidates or len(candidates) != 2:
        return False
    first, second = candidates
    return tuple(second) == complement_bits(first)


def main(
    scale: Scale, csv_path: str | None = None, jobs: int | None = None
) -> str:
    stats = run_summary(scale, jobs=jobs)
    rows = [record.row() for record in stats.records]
    table = render_table(
        ("benchmark", "attack", "status", "solved", "t[s]", "queries", "shortlist"),
        rows,
        title="FALL oracle-less sweep",
    )
    headline = render_table(
        ("metric", "value", "paper"),
        [
            (
                "defeated",
                f"{stats.defeated}/{stats.total} ({stats.defeat_rate:.0%})",
                "65/80 (81%)",
            ),
            (
                "unique key among defeats",
                f"{stats.unique_key}/{stats.defeated} ({stats.unique_rate:.0%})",
                "58/65 (90%)",
            ),
            ("multi-key shortlists", stats.multi_key, "7"),
            ("complement pairs", stats.complement_pairs, "4"),
            ("timeouts", stats.timeouts, "-"),
        ],
        title="Headline statistics (ours vs paper)",
    )
    if csv_path:
        write_csv(
            csv_path,
            ("benchmark", "attack", "status", "solved", "t", "queries", "shortlist"),
            rows,
        )
    return table + "\n" + headline
