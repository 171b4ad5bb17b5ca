"""Benchmark regression gate for the simulation microbenchmarks.

Diffs a freshly generated ``bench_simulate.py`` report against the
committed baseline (``benchmarks/BENCH_simulate.json``) and exits
non-zero when any tracked speedup ratio regresses by more than the
tolerance (default 30%).

Only *ratios* are compared — a speedup divides two timings of the same
workload taken on the same machine in the same process, so absolute
machine speed cancels and the gate transfers between the committed
baseline's machine and a CI runner. Ratios present in the
baseline but absent from the fresh report are skipped and listed, never
failed.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/bench_simulate.py --output fresh.json
    python benchmarks/bench_compare.py benchmarks/BENCH_simulate.json fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30


def tracked_ratios(report: dict) -> dict[tuple[str, str], float]:
    """All (suite, key) -> value entries whose key is a speedup ratio."""
    ratios: dict[tuple[str, str], float] = {}
    for suite_name, entry in report.get("suites", {}).items():
        for key, value in entry.items():
            if key.endswith("speedup") and isinstance(value, (int, float)):
                ratios[(suite_name, key)] = float(value)
    return ratios


def compare(
    baseline: dict, fresh: dict, tolerance: float
) -> tuple[list[str], list[str], list[str]]:
    """Returns (regressions, skipped, report_lines)."""
    base_ratios = tracked_ratios(baseline)
    fresh_ratios = tracked_ratios(fresh)
    regressions: list[str] = []
    skipped: list[str] = []
    lines: list[str] = []
    for (suite, key), base_value in sorted(base_ratios.items()):
        label = f"{suite}.{key}"
        fresh_value = fresh_ratios.get((suite, key))
        if fresh_value is None:
            skipped.append(label)
            lines.append(f"  {label:45s} {base_value:10.2f}x ->    (absent)")
            continue
        floor = base_value * (1.0 - tolerance)
        if fresh_value < floor:
            status = f"REGRESSION (floor {floor:.2f}x)"
            regressions.append(
                f"{label}: {base_value:.2f}x -> {fresh_value:.2f}x "
                f"(allowed floor {floor:.2f}x)"
            )
        else:
            status = "ok"
        lines.append(
            f"  {label:45s} {base_value:10.2f}x -> {fresh_value:8.2f}x  "
            f"{status}"
        )
    return regressions, skipped, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("fresh", type=Path, help="freshly generated JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="maximum allowed relative regression of a tracked ratio "
             "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    regressions, skipped, lines = compare(baseline, fresh, args.tolerance)
    print(
        f"benchmark gate: baseline {args.baseline} "
        f"(python {baseline.get('python')}) vs fresh {args.fresh} "
        f"(python {fresh.get('python')}), tolerance {args.tolerance:.0%}"
    )
    print("\n".join(lines))
    if skipped:
        print(f"skipped (absent from fresh report): {', '.join(skipped)}")
    if regressions:
        print("FAILED: tracked speedup ratios regressed beyond tolerance:")
        for regression in regressions:
            print(f"  {regression}")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
