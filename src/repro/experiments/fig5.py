"""Figure 5 reproduction: circuit analyses, time vs #benchmarks solved.

Four panels, one per Hamming-distance setting:

- SFLL-HD0: SAT attack vs AnalyzeUnateness (via the FALL pipeline),
- h = m/8: SAT attack vs SlidingWindow vs Distance2H,
- h = m/4: same three,
- h = m/3: SAT attack vs SlidingWindow (Distance2H inapplicable, 4h > m).

For each (circuit, attack) cell we record the solve time (or timeout);
a panel's cactus series is the sorted list of solve times. The paper's
shape to reproduce: the functional analyses solve (nearly) everything
well inside the limit while the SAT attack solves (almost) nothing;
Distance2H dominates SlidingWindow as h grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.profiles import Scale
from repro.experiments.report import render_cactus, render_table, write_csv
from repro.experiments.runner import RunRecord, run_benchmark_attack
from repro.experiments.suite import build_benchmark

PANELS: dict[str, tuple[str, ...]] = {
    "hd0": ("AnalyzeUnateness", "SAT-Attack"),
    "m/8": ("SlidingWindow", "Distance2H", "SAT-Attack"),
    "m/4": ("SlidingWindow", "Distance2H", "SAT-Attack"),
    "m/3": ("SlidingWindow", "SAT-Attack"),
}

# Panel line -> (registry attack, FALL analyses it is restricted to).
_ATTACK_OF: dict[str, tuple[str, tuple[str, ...] | None]] = {
    "SAT-Attack": ("sat", None),
    "AnalyzeUnateness": ("fall", ("unateness",)),
    "SlidingWindow": ("fall", ("sliding_window",)),
    "Distance2H": ("fall", ("distance2h",)),
}


@dataclass
class PanelResult:
    label: str
    total: int
    series: dict[str, list[float]]  # attack -> solve times (solved only)
    records: list[RunRecord]


def run_panel(label: str, scale: Scale) -> PanelResult:
    """Execute one Figure 5 panel over the profiles of ``scale``."""
    profiles = scale.profiles()
    series: dict[str, list[float]] = {name: [] for name in PANELS[label]}
    records: list[RunRecord] = []
    for profile in profiles:
        benchmark = build_benchmark(profile, label)
        for attack_name in PANELS[label]:
            attack, analyses = _ATTACK_OF[attack_name]
            record = run_benchmark_attack(
                benchmark,
                attack,
                scale.time_limit,
                with_oracle=None if attack == "sat" else True,
                analyses=analyses,
                attack_label=attack_name,
            )
            records.append(record)
            if record.solved:
                series[attack_name].append(record.elapsed_seconds)
    return PanelResult(
        label=label, total=len(profiles), series=series, records=records
    )


def main(
    scale: Scale, panel: str | None = None, csv_path: str | None = None
) -> str:
    labels = [panel] if panel else list(PANELS)
    out = []
    rows = []
    for label in labels:
        result = run_panel(label, scale)
        out.append(
            render_cactus(
                result.series,
                scale.time_limit,
                result.total,
                title=f"Figure 5 panel: SFLL-HD {label}",
            )
        )
        for record in result.records:
            rows.append(record.row())
    out.append(
        render_table(
            ("benchmark", "attack", "status", "solved", "t[s]", "queries", "shortlist"),
            rows,
            title="Figure 5 raw records",
        )
    )
    if csv_path:
        write_csv(
            csv_path,
            ("benchmark", "attack", "status", "solved", "t", "queries", "shortlist"),
            rows,
        )
    return "\n".join(out)
