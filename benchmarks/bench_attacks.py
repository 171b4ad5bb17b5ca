"""Attack-throughput benchmarks over the unified engine.

One suite — ``attack_throughput`` — times every oracle-comparable
registered attack family on the seeded corpus cells of
``tests/attacks/test_e2e_corpus.py`` and records, per attack:

- best-of-N wall-clock seconds per cell and summed over the corpus,
- oracle query counts (deterministic given seeds — drift here is a
  *correctness* regression, and the benchmark hard-fails on it),

plus three ratios consumed by the ``bench_compare.py`` regression gate:

- ``engine_overhead_speedup`` — direct ``repro.attacks.cegis.sat_attack``
  call time over engine ``run_attack("sat", ...)`` time. Both run the identical
  workload on one core, so the ratio transfers across machines and is
  *gated*: it sitting near 1.0 is the proof the registry/telemetry/
  lifecycle layer stays out of the hot path.
- ``fall_vs_sat_speedup`` — the paper's qualitative headline (the
  functional analyses beat the SAT attack on SFLL) as a number;
  *informational*, it compares different algorithms whose relative
  cost legitimately shifts with solver heuristics.
- ``portfolio_parallel_speedup`` — sequential portfolio over
  ``jobs=2`` racing portfolio on the SARLock cell; parallelism-
  dependent (≤1x on a single-core host), therefore *informational*.

Run ``PYTHONPATH=src python benchmarks/bench_attacks.py`` from the repo
root; results go to ``benchmarks/BENCH_attacks.json`` (or ``--output``)
and CI diffs them against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.attacks.base import AttackConfig
from repro.attacks.engine import run_attack, run_portfolio
from repro.attacks.oracle import IOOracle
from repro.attacks.cegis import sat_attack
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.locking import lock_sarlock, lock_sfll_hd, lock_ttlock
from repro.utils.timer import Budget

_REPEATS = 3
_TIME_LIMIT = 120.0

# (label, builder) corpus cells — seeded like the e2e regression corpus
# so timings and query counts track the exact workloads the tests pin.
def _corpus():
    paper = paper_example_circuit()
    rand14 = generate_random_circuit("corpus14", 14, 4, 110, seed=21)
    rand10 = generate_random_circuit("corpus10", 10, 3, 70, seed=31)
    return (
        ("paper/ttlock", paper, lock_ttlock(paper, cube=(1, 0, 0, 1)), 0),
        ("rand14/ttlock", rand14, lock_ttlock(rand14, key_width=10, seed=5), 0),
        ("rand14/sfll_hd1", rand14,
         lock_sfll_hd(rand14, h=1, key_width=10, seed=6), 1),
        ("rand10/sarlock", rand10,
         lock_sarlock(rand10, key_width=8, seed=9), 0),
    )


# (name, iteration cap). Double DIP's four-instance CNF makes its late
# CEGIS iterations minutes-long on the sfll cell; the throughput suite
# measures per-iteration pace under a deterministic cap instead of
# paying for full convergence on every CI leg.
_ATTACKS = (
    ("fall", None),
    ("sat", None),
    ("appsat", None),
    ("double-dip", 40),
    ("sps", None),
)


def _best_of(fn, repeats: int = _REPEATS):
    """Best wall-clock of ``repeats`` runs plus every run's value."""
    best = float("inf")
    values = []
    for _ in range(repeats):
        start = time.perf_counter()
        values.append(fn())
        best = min(best, time.perf_counter() - start)
    return best, values


def bench_attack_throughput() -> dict:
    cells = _corpus()
    per_attack: dict[str, dict] = {}
    failures: list[str] = []
    for attack, iteration_cap in _ATTACKS:
        cell_entries = {}
        total_seconds = 0.0
        total_queries = 0
        for label, original, locked, h in cells:
            def run():
                return run_attack(
                    attack,
                    locked.circuit,
                    IOOracle(original),
                    AttackConfig(
                        h=h,
                        time_limit=_TIME_LIMIT,
                        max_iterations=iteration_cap,
                    ),
                )

            seconds, runs = _best_of(run)
            result = runs[-1]
            queries = {r.oracle_queries for r in runs}
            if len(queries) > 1:
                failures.append(
                    f"{attack} on {label}: query count not deterministic "
                    f"({sorted(queries)})"
                )
            cell_entries[label] = {
                "seconds": round(seconds, 6),
                "status": result.status.value,
                "oracle_queries": result.oracle_queries,
                "iterations": result.iterations,
            }
            total_seconds += seconds
            total_queries += result.oracle_queries
        per_attack[attack] = {
            "cells": cell_entries,
            "total_seconds": round(total_seconds, 6),
            "total_queries": total_queries,
        }

    # Engine overhead: direct family call vs the engine lifecycle.
    _, _, sfll_locked, _ = [c for c in cells if c[0] == "rand14/sfll_hd1"][0]
    _, sfll_original, _, _ = [c for c in cells if c[0] == "rand14/sfll_hd1"][0]

    direct_seconds, _ = _best_of(
        lambda: sat_attack(
            sfll_locked.circuit, IOOracle(sfll_original),
            budget=Budget(_TIME_LIMIT),
        )
    )
    engine_seconds, _ = _best_of(
        lambda: run_attack(
            "sat", sfll_locked.circuit, IOOracle(sfll_original),
            AttackConfig(time_limit=_TIME_LIMIT),
        )
    )
    fall_seconds = per_attack["fall"]["cells"]["rand14/sfll_hd1"]["seconds"]
    sat_seconds = per_attack["sat"]["cells"]["rand14/sfll_hd1"]["seconds"]

    # Portfolio: sequential vs 2-worker racing on the SARLock cell
    # (where racing pays: fall fails fast, appsat escapes early, the
    # SAT attack grinds 2^k queries until cancelled).
    label, sar_original, sar_locked, _ = [
        c for c in cells if c[0] == "rand10/sarlock"
    ][0]
    racers = ["sat", "appsat"]
    sequential_seconds, (sequential_result,) = _best_of(
        lambda: run_portfolio(
            racers, sar_locked.circuit, IOOracle(sar_original),
            AttackConfig(time_limit=_TIME_LIMIT), jobs=1,
        ),
        repeats=1,
    )
    parallel_seconds, (parallel_result,) = _best_of(
        lambda: run_portfolio(
            racers, sar_locked.circuit, IOOracle(sar_original),
            AttackConfig(time_limit=_TIME_LIMIT), jobs=2,
        ),
        repeats=1,
    )
    if not parallel_result.succeeded:
        failures.append("parallel portfolio did not conclude on sarlock")

    return {
        "attacks": per_attack,
        "corpus_cells": len(cells),
        "engine_seconds": round(engine_seconds, 6),
        "direct_seconds": round(direct_seconds, 6),
        # Gated: the engine must not slow the direct call meaningfully.
        "engine_overhead_speedup": round(direct_seconds / engine_seconds, 4),
        # Informational: cross-algorithm comparison (the paper's story).
        "fall_vs_sat_speedup": round(sat_seconds / fall_seconds, 4),
        "portfolio_sequential_seconds": round(sequential_seconds, 6),
        "portfolio_parallel_seconds": round(parallel_seconds, 6),
        # Informational: scales with the host's core count.
        "portfolio_parallel_speedup": round(
            sequential_seconds / parallel_seconds, 4
        ),
        "portfolio_winner": parallel_result.details["portfolio"]["winner"],
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "BENCH_attacks.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = {
        "python": sys.version.split()[0],
        "suites": {"attack_throughput": bench_attack_throughput()},
    }
    suite = report["suites"]["attack_throughput"]
    print("attack_throughput (seeded corpus, best of "
          f"{_REPEATS}, {suite['corpus_cells']} cells):")
    for attack, entry in suite["attacks"].items():
        print(
            f"  {attack:12s} total {entry['total_seconds']*1000:9.1f} ms, "
            f"{entry['total_queries']:5d} oracle queries"
        )
    print(
        f"  engine overhead speedup (direct/engine): "
        f"{suite['engine_overhead_speedup']:.2f}x (gated)"
    )
    print(
        f"  fall vs sat speedup (sfll_hd1):          "
        f"{suite['fall_vs_sat_speedup']:.2f}x (informational)"
    )
    print(
        f"  portfolio parallel speedup (sarlock):    "
        f"{suite['portfolio_parallel_speedup']:.2f}x (informational, "
        f"winner={suite['portfolio_winner']})"
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if suite["failures"]:
        for failure in suite["failures"]:
            print(f"FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
