"""Command-line entry points.

Three commands (also exposed as console scripts via pyproject):

- ``fall-lock``: lock a ``.bench`` netlist with TTLock/SFLL-HDh (or a
  baseline scheme) and write the locked ``.bench`` plus the key.
- ``fall-attack``: run any registered attack family (``--attack``), or
  race several (``--portfolio``), on a locked ``.bench`` netlist,
  optionally with an oracle netlist and JSON checkpointing.
- ``fall-experiments``: regenerate the paper's tables and figures at
  the scale the ``REPRO_*`` environment variables select (the only
  place the library reads the environment).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from repro.attacks.base import AttackConfig
from repro.attacks.engine import run_attack, run_portfolio
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import all_attacks, attack_names, get_attack
from repro.circuit.bench_io import read_bench, save_bench
from repro.circuit.sharding import parse_jobs
from repro.errors import CircuitError
from repro.locking import (
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)


def _jobs(value: str) -> int | None:
    """argparse type for ``--jobs``: a positive int, or ``None`` (auto)."""
    try:
        return parse_jobs(value)
    except CircuitError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_jobs_argument(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        metavar="N",
        help=f"worker processes for {what}: a positive integer or "
             "'auto' (default: auto = all usable CPU cores)",
    )


def main_lock(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fall-lock", description="Lock a .bench netlist."
    )
    parser.add_argument("netlist", help="input .bench file")
    parser.add_argument("output", help="output .bench file (locked)")
    parser.add_argument(
        "--scheme",
        choices=("ttlock", "sfll", "rll", "sarlock", "antisat"),
        default="sfll",
    )
    parser.add_argument("--h", type=int, default=0, help="SFLL Hamming distance")
    parser.add_argument("--keys", type=int, default=None, help="key width")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-optimize", action="store_true", help="skip the strash pass"
    )
    parser.add_argument(
        "--key-file", default=None, help="write the correct key here"
    )
    args = parser.parse_args(argv)

    circuit = read_bench(args.netlist)
    optimize_netlist = not args.no_optimize
    if args.scheme == "ttlock":
        locked = lock_ttlock(
            circuit, key_width=args.keys, seed=args.seed,
            optimize_netlist=optimize_netlist,
        )
    elif args.scheme == "sfll":
        locked = lock_sfll_hd(
            circuit, h=args.h, key_width=args.keys, seed=args.seed,
            optimize_netlist=optimize_netlist,
        )
    elif args.scheme == "rll":
        locked = lock_random_xor(
            circuit, key_width=args.keys or 32, seed=args.seed,
            optimize_netlist=optimize_netlist,
        )
    elif args.scheme == "sarlock":
        locked = lock_sarlock(
            circuit, key_width=args.keys, seed=args.seed,
            optimize_netlist=optimize_netlist,
        )
    else:
        locked = lock_antisat(
            circuit, key_width=args.keys, seed=args.seed,
            optimize_netlist=optimize_netlist,
        )
    save_bench(locked.circuit, args.output)
    key_text = "".join(str(b) for b in locked.reveal_correct_key())
    if args.key_file:
        with open(args.key_file, "w") as handle:
            handle.write(key_text + "\n")
    print(f"locked {args.netlist} -> {args.output}")
    print(f"scheme={locked.scheme} keys={locked.key_width} correct_key={key_text}")
    return 0


def _parse_portfolio(parser, value: str) -> list[str]:
    """Resolve a ``--portfolio`` spec into registered attack names."""
    if value == "auto":
        # The oracle-guided racing set: the families whose conclusive
        # results are comparable key recoveries.
        return ["fall", "sat", "appsat", "double-dip"]
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        parser.error("--portfolio needs at least one attack name")
    seen: set[str] = set()
    for name in names:
        if name not in attack_names():
            parser.error(
                f"unknown attack {name!r} in --portfolio; registered "
                f"attacks: {', '.join(attack_names())}"
            )
        if name in seen:
            parser.error(f"attack {name!r} listed twice in --portfolio")
        seen.add(name)
    return names


def main_attack(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fall-attack",
        description="Attack a locked .bench netlist with any registered "
                    "attack family, or race several as a portfolio.",
    )
    parser.add_argument(
        "netlist",
        nargs="?",
        default=None,
        help="locked .bench file (key inputs marked); required unless "
             "--list-attacks is given",
    )
    parser.add_argument(
        "--attack",
        default="fall",
        metavar="NAME",
        help="registered attack family to run "
             f"(one of: {', '.join(attack_names())}; default: fall)",
    )
    parser.add_argument(
        "--portfolio",
        nargs="?",
        const="auto",
        default=None,
        metavar="NAMES",
        help="race a comma-separated list of registered attacks instead "
             "of running one (--portfolio alone races the oracle-guided "
             "set fall,sat,appsat,double-dip); first conclusive result "
             "wins, the rest are cooperatively cancelled",
    )
    parser.add_argument(
        "--list-attacks",
        action="store_true",
        help="list the registered attack families and exit",
    )
    parser.add_argument("--h", type=int, default=0, help="SFLL Hamming distance")
    parser.add_argument(
        "--oracle",
        default=None,
        help="unlocked .bench file to answer I/O queries",
    )
    parser.add_argument("--time-limit", type=float, default=1000.0)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="deterministic seed threaded through every attack RNG",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="iteration cap for the oracle-guided CEGIS loops",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSON checkpoint file: the oracle transcript streams here "
             "and an interrupted run resumes bit-exactly (iterative "
             "oracle-guided attacks only; not valid with --portfolio)",
    )
    _add_jobs_argument(parser, "--portfolio racing")
    args = parser.parse_args(argv)

    if args.list_attacks:
        for attack in all_attacks():
            oracle_note = " (needs --oracle)" if attack.requires_oracle else ""
            print(f"{attack.name:18s} {attack.description}{oracle_note}")
        return 0
    if args.netlist is None:
        parser.error("the following arguments are required: netlist")
    if args.attack not in attack_names():
        parser.error(
            f"unknown attack {args.attack!r}; registered attacks: "
            f"{', '.join(attack_names())}"
        )
    if args.portfolio is not None and args.checkpoint is not None:
        parser.error("--checkpoint cannot be combined with --portfolio")

    locked = read_bench(args.netlist)
    oracle = IOOracle(read_bench(args.oracle)) if args.oracle else None
    config = AttackConfig(
        h=args.h,
        time_limit=args.time_limit,
        max_iterations=args.max_iterations,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
    )
    if args.portfolio is not None:
        names = _parse_portfolio(parser, args.portfolio)
        result = run_portfolio(names, locked, oracle, config)
        portfolio = result.details["portfolio"]
        print(f"portfolio winner: {portfolio['winner']}")
        for name in names:
            entry = portfolio["attacks"][name]
            status = entry["status"]
            if entry.get("cancelled"):
                status += " (cancelled)"
            print(f"  {name:14s} {status}")
    else:
        if oracle is None and get_attack(args.attack).requires_oracle:
            parser.error(f"the {args.attack} attack requires --oracle")
        result = run_attack(args.attack, locked, oracle, config)
    print(result.summary())
    if result.key is not None:
        print("key:", "".join(str(b) for b in result.key))
        return 0
    if result.candidates:
        for candidate in result.candidates:
            print("candidate:", "".join(str(b) for b in candidate))
        return 0
    return 0 if result.succeeded else 1


def main_experiments(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fall-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=("table1", "fig5", "fig6", "summary", "all"),
    )
    parser.add_argument("--csv", default=None, help="also write CSV here")
    _add_jobs_argument(parser, "the summary sweep's grid cells")
    args = parser.parse_args(argv)

    from repro.experiments import fig5, fig6, summary, table1
    from repro.experiments.profiles import scale_from_env

    try:
        scale = scale_from_env(os.environ)
    except ValueError as error:
        parser.error(str(error))
    mains = {
        "table1": table1.main,
        "fig5": fig5.main,
        "fig6": fig6.main,
        "summary": functools.partial(summary.main, jobs=args.jobs),
    }
    if args.artifact == "all":
        for name, entry in mains.items():
            print(
                entry(
                    scale,
                    csv_path=f"{args.csv}.{name}.csv" if args.csv else None,
                )
            )
    else:
        print(mains[args.artifact](scale, csv_path=args.csv))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual dispatch helper
    sys.exit(main_experiments(sys.argv[1:]))
