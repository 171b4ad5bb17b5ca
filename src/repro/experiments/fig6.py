"""Figure 6 reproduction: key confirmation vs SAT attack runtimes.

For every circuit, run key confirmation with the shortlist produced by
the FALL stage-1 analyses (falling back to a constructed two-candidate
shortlist when stage 1 yields none, mirroring the paper's use of "key
values obtained from the results of the previous subsection"), across
the locked variants (the h settings), and compare the mean execution
time with the vanilla SAT attack's. The paper's shape: key confirmation
succeeds everywhere and is orders of magnitude faster; the SAT attack
times out on most SFLL variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pstdev

from repro.attacks.fall.pipeline import fall_attack
from repro.experiments.profiles import H_LABELS, Scale
from repro.experiments.report import render_table, write_csv
from repro.experiments.runner import run_benchmark_attack
from repro.experiments.suite import build_benchmark
from repro.utils.bitops import complement_bits
from repro.utils.timer import Budget


@dataclass
class Fig6Row:
    circuit: str
    confirmation_mean: float
    confirmation_std: float
    confirmation_successes: int
    sat_mean: float
    sat_std: float
    sat_successes: int
    variants: int

    def row(self) -> tuple:
        return (
            self.circuit,
            f"{self.confirmation_mean:.2f}",
            f"{self.confirmation_std:.2f}",
            f"{self.confirmation_successes}/{self.variants}",
            f"{self.sat_mean:.2f}",
            f"{self.sat_std:.2f}",
            f"{self.sat_successes}/{self.variants}",
        )


def shortlist_for(benchmark, time_limit: float) -> list[tuple[int, ...]]:
    """Candidate keys from FALL stage 1 (no oracle).

    When the oracle-less stage produces nothing within the budget, fall
    back to a synthetic two-candidate shortlist exercising the
    confirmation machinery (the paper's experiments always had stage-1
    output available; our scaled-down budget may not).
    """
    result = fall_attack(
        benchmark.locked.circuit,
        h=benchmark.h,
        oracle=None,
        budget=Budget(time_limit),
    )
    if result.key is not None:
        return [result.key]
    if result.candidates:
        return list(result.candidates)
    width = len(benchmark.locked.key_names)
    zero = tuple([0] * width)
    return [zero, complement_bits(zero)]


def run_fig6(scale: Scale) -> list[Fig6Row]:
    limit = scale.time_limit
    rows: list[Fig6Row] = []
    for profile in scale.profiles():
        confirmation_times: list[float] = []
        confirmation_success = 0
        sat_times: list[float] = []
        sat_success = 0
        variants = 0
        for label in H_LABELS:
            benchmark = build_benchmark(profile, label)
            variants += 1
            shortlist = shortlist_for(benchmark, limit)
            record = run_benchmark_attack(
                benchmark,
                "key-confirmation",
                limit,
                candidates=tuple(tuple(key) for key in shortlist),
            )
            confirmation_times.append(record.elapsed_seconds)
            confirmation_success += record.solved
            sat_record = run_benchmark_attack(benchmark, "sat", limit)
            sat_times.append(sat_record.elapsed_seconds)
            sat_success += sat_record.solved
        rows.append(
            Fig6Row(
                circuit=profile.name,
                confirmation_mean=mean(confirmation_times),
                confirmation_std=pstdev(confirmation_times),
                confirmation_successes=confirmation_success,
                sat_mean=mean(sat_times),
                sat_std=pstdev(sat_times),
                sat_successes=sat_success,
                variants=variants,
            )
        )
    return rows


HEADERS = (
    "ckt",
    "keyconf-mean[s]",
    "keyconf-std",
    "keyconf-ok",
    "sat-mean[s]",
    "sat-std",
    "sat-ok",
)


def main(scale: Scale, csv_path: str | None = None) -> str:
    rows = run_fig6(scale)
    table_rows = [row.row() for row in rows]
    text = render_table(
        HEADERS,
        table_rows,
        title="Figure 6: mean execution time, key confirmation vs SAT attack",
    )
    if csv_path:
        write_csv(csv_path, HEADERS, table_rows)
    return text
