"""Wall-clock A/B gate: the attack benchmark at a base revision and HEAD.

Usage (from anywhere inside the repository)::

    python3 benchmarks/ab.py [BASE_REV]

``BASE_REV`` defaults to the merge base of HEAD with ``main`` (or with
``origin/main`` where there is no local ``main``). Both revisions are
checked out as ``git worktree``s side by side under one temporary
directory, free of ``__pycache__``, and run with
``PYTHONDONTWRITEBYTECODE=1``: a run from a warm checkout, or from one
in another directory, reads several percent off a run from a fresh
side-by-side copy. Only committed files are measured.

For each workload in ``PAIRS`` it runs ``attackbench/run.py --seed 0
--seconds 10 --trace 0`` in both trees, alternately, flipping which
tree goes first every pair, and prints each pair's ``pass_s`` ratio
(HEAD over base) and the medians. It exits 1 when

- a workload's median ratio exceeds the bound in ``AB_aa.json`` (from
  HEAD-vs-HEAD runs on the same kind of host, see ``--record-aa``);
- ``oracle_queries``, ``solved_frac`` or ``unique_key_frac`` differ
  between the trees, or between runs of one tree;
- any run reports ``failed > 0`` or exits nonzero.

``python3 benchmarks/ab.py --record-aa RUNS`` runs HEAD against itself
``RUNS`` times and rewrites ``AB_aa.json`` with every pair ratio, each
run's median ratio and the bound derived from them (``bound_of``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
AA_FILE = HERE / "AB_aa.json"
# Pairs per workload: about 5.5 minutes in all on a 2-vCPU host.
PAIRS = {"sat-cegis": 6, "suite-jobs2": 4}
RUN_ARGS = ("--seed", "0", "--seconds", "10", "--trace", "0")
# Outcome metrics that a change must leave exactly as they were.
EXACT = ("oracle_queries", "solved_frac", "unique_key_frac")
# Printed as medians per tree, not gated.
SHOWN = ("pass_s", "setup_s", "peak_rss_mb")


def git(*args: str, cwd: Path = HERE) -> str:
    return subprocess.run(
        ("git", *args), cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def default_base() -> str:
    for branch in ("main", "origin/main"):
        try:
            return git("merge-base", "HEAD", branch)
        except subprocess.CalledProcessError:
            continue
    sys.exit("ab.py: no main or origin/main to take a merge base with; "
             "pass BASE_REV")


def checkout(root: Path, rev: str, path: Path) -> None:
    git("worktree", "add", "--detach", str(path), rev, cwd=root)
    for cache in path.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str) -> dict:
    """One benchmark run; its last output line is a JSON summary."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        (sys.executable, "attackbench/run.py", "--workload", workload,
         *RUN_ARGS),
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {"failed": None, "metrics": {}}
    summary["returncode"] = proc.returncode
    if proc.returncode:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return summary


def metric(summary: dict, name: str):
    entry = summary["metrics"].get(name)
    return None if entry is None else entry["value"]


def measure(trees: dict[str, Path], workload: str, pairs: int) -> dict:
    """``pairs`` alternating runs of both trees; the per-pair ratios and
    the problems seen."""
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    ratios = []
    sides = list(trees)
    for pair in range(pairs):
        order = sides if pair % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(run_once(trees[side], workload))
        base_s = metric(runs["base"][-1], "pass_s")
        head_s = metric(runs["head"][-1], "pass_s")
        ratio = head_s / base_s if base_s and head_s else float("nan")
        ratios.append(ratio)
        print(f"  {workload} pair {pair + 1}/{pairs} ({order[0]} first): "
              f"base {base_s} s, head {head_s} s, ratio {ratio:.3f}",
              flush=True)
    problems = []
    for side, side_runs in runs.items():
        for summary in side_runs:
            if summary["returncode"] or summary.get("failed") != 0:
                problems.append(
                    f"{workload}: a {side} run exited "
                    f"{summary['returncode']} with failed "
                    f"{summary.get('failed')}")
    for name in EXACT:
        values = {side: {metric(s, name) for s in side_runs}
                  for side, side_runs in runs.items()}
        if len(values["base"] | values["head"]) != 1:
            problems.append(f"{workload}: {name} differs: {values}")
    medians = {
        side: {name: statistics.median(metric(s, name) or 0.0
                                       for s in side_runs)
               for name in SHOWN}
        for side, side_runs in runs.items()
    }
    return {"ratios": ratios, "medians": medians, "problems": problems}


def bound_of(medians: list[float]) -> float:
    """The gate bound from A/A median ratios: the worst one plus half
    the spread of the A/A medians, at least 1.05."""
    spread = max(medians) - min(medians)
    return round(max(1.05, max(medians) + spread / 2), 3)


def with_trees(base_rev: str, head_rev: str, work) -> object:
    root = Path(git("rev-parse", "--show-toplevel"))
    parent = Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"base": parent / "base", "head": parent / "head"}
    try:
        checkout(root, base_rev, trees["base"])
        checkout(root, head_rev, trees["head"])
        return work(trees)
    finally:
        for path in trees.values():
            if path.exists():
                subprocess.run(("git", "worktree", "remove", "--force",
                                str(path)), cwd=root, capture_output=True)
        subprocess.run(("git", "worktree", "prune"), cwd=root,
                       capture_output=True)
        shutil.rmtree(parent, ignore_errors=True)


def gate(base_rev: str) -> int:
    bound = json.loads(AA_FILE.read_text())["bound"]
    base = git("rev-parse", base_rev)
    head = git("rev-parse", "HEAD")
    print(f"base {base}\nhead {head}\nbound {bound} (median pass_s ratio)")

    def work(trees):
        return {w: measure(trees, w, n) for w, n in PAIRS.items()}

    results = with_trees(base, head, work)
    failed = False
    for workload, result in results.items():
        median = statistics.median(result["ratios"])
        ratios = " ".join(f"{r:.3f}" for r in result["ratios"])
        verdict = "ok" if median <= bound else "SLOWER"
        for name in SHOWN:
            print(f"{workload}: {name} median base "
                  f"{result['medians']['base'][name]:.3f} head "
                  f"{result['medians']['head'][name]:.3f}")
        print(f"{workload}: pass_s ratios {ratios}; median ratio {median:.3f} "
              f"{verdict}")
        for problem in result["problems"]:
            print(f"PROBLEM {problem}")
        failed |= median > bound or bool(result["problems"])
    return 1 if failed else 0


def record_aa(runs: int) -> int:
    def work(trees):
        return [{w: measure(trees, w, n) for w, n in PAIRS.items()}
                for _ in range(runs)]

    results = with_trees("HEAD", "HEAD", work)
    medians = [statistics.median(r["ratios"])
               for result in results for r in result.values()]
    problems = [p for result in results for r in result.values()
                for p in r["problems"]]
    for problem in problems:
        print(f"PROBLEM {problem}")
    if problems:
        return 1
    record = {
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                f"Python {platform.python_version()}",
        "pairs": PAIRS,
        "run_args": list(RUN_ARGS),
        "pair_ratios": {w: [r[w]["ratios"] for r in results] for w in PAIRS},
        "median_ratios": {w: [statistics.median(r[w]["ratios"])
                              for r in results] for w in PAIRS},
        "bound": bound_of(medians),
    }
    AA_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"A/A median ratios {record['median_ratios']}; "
          f"bound {record['bound']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", nargs="?",
                        help="base revision (default: merge base with main)")
    parser.add_argument("--record-aa", type=int, metavar="RUNS",
                        help="rewrite AB_aa.json from RUNS HEAD-vs-HEAD runs")
    args = parser.parse_args(argv)
    if args.record_aa:
        return record_aa(args.record_aa)
    return gate(args.base_rev or default_base())


if __name__ == "__main__":
    sys.exit(main())
