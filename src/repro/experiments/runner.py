"""Registry-driven attack execution + success classification.

One generic entry point — :func:`run_benchmark_attack` — runs *any*
registered attack family (see :mod:`repro.attacks.registry`) on a
:class:`~repro.experiments.suite.LockedBenchmark` through the unified
engine and classifies the outcome with the defender-side ground truth:

- a recovered key counts only if it provably unlocks the benchmark;
- a keyless SUCCESS (removal attacks) counts only if the reconstructed
  netlist is equivalent to the original;
- a multi-key shortlist counts when it contains a correct key (the
  paper counts those as defeats only without an oracle, §VI-B).

The module also provides the process-parallel suite driver:
:func:`run_suite` maps :class:`SuiteTask` cells onto the persistent
worker pool (:mod:`repro.circuit.sharding`). Every task carries its own
deterministic seeds (the benchmark is rebuilt inside the worker from
the profile seed + lock seed) and names its attack by registry name, so
a parallel sweep produces the same records as a sequential one —
identical modulo wall-clock timing fields.

The success checks import :func:`~repro.circuit.equivalence.check_equivalence`
when they first run, so importing the runner does not load the SAT
solver and CNF encoders; a run that verifies a key loads them then.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import AttackConfig
from repro.attacks.engine import run_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import get_attack
from repro.attacks.results import (
    AttackResult,
    AttackStatus,
    circuit_from_details,
)
from repro.circuit.sharding import map_in_processes
from repro.experiments.profiles import CircuitProfile
from repro.experiments.suite import LockedBenchmark, build_benchmark


@dataclass
class RunRecord:
    """One attack execution on one benchmark."""

    benchmark: str
    attack: str
    status: AttackStatus
    solved: bool
    correct_key: bool
    elapsed_seconds: float
    oracle_queries: int
    shortlist_size: int
    details: dict

    def row(self) -> tuple:
        return (
            self.benchmark,
            self.attack,
            self.status.value,
            "yes" if self.solved else "no",
            f"{self.elapsed_seconds:.2f}",
            self.oracle_queries,
            self.shortlist_size,
        )


def _verify_key(benchmark: LockedBenchmark, key: tuple[int, ...] | None) -> bool:
    """Defender-side success check: does the recovered key unlock?"""
    if key is None:
        return False
    from repro.circuit.equivalence import check_equivalence

    unlocked = benchmark.locked.unlocked_with(key)
    result = check_equivalence(benchmark.original, unlocked)
    return bool(result.proved)


def _verify_reconstruction(benchmark: LockedBenchmark, details: dict) -> bool:
    """Removal-attack success check: reconstructed netlist ≡ original."""
    payload = details.get("reconstructed")
    if payload is None:
        return False
    from repro.circuit.equivalence import check_equivalence

    rebuilt = circuit_from_details(payload)
    return bool(check_equivalence(benchmark.original, rebuilt).proved)


def _classify(benchmark: LockedBenchmark, result: AttackResult) -> tuple:
    """(solved, correct_key) under the uniform success criteria."""
    correct = _verify_key(benchmark, result.key) if result.key else False
    if result.status is AttackStatus.SUCCESS:
        if result.key is not None:
            return correct, correct
        if "reconstructed" in result.details:
            return _verify_reconstruction(benchmark, result.details), False
    if result.status is AttackStatus.MULTIPLE_CANDIDATES:
        solved = any(
            _verify_key(benchmark, candidate) for candidate in result.candidates
        )
        return solved, correct
    return False, correct


# Detail keys whose values are wall-clock-dependent; stripped from the
# record so parallel and sequential sweeps compare equal.
_VOLATILE_DETAILS = ("telemetry", "checkpoint", "portfolio")


def _stable_details(result: AttackResult) -> dict:
    report = result.details.get("report")
    if isinstance(report, dict):
        # FALL: keep the stable stage summary the tables consume.
        return {
            "oracle_less": report.get("oracle_less", False),
            "candidates": len(report.get("candidate_nodes", ())),
            "analyses": report.get("analyses_attempted", 0),
            "candidate_keys": tuple(
                tuple(key) for key in report.get("candidate_keys", ())
            ),
        }
    details = {
        key: value
        for key, value in result.details.items()
        if key not in _VOLATILE_DETAILS
    }
    return details


def run_benchmark_attack(
    benchmark: LockedBenchmark,
    attack: str,
    time_limit: float,
    with_oracle: bool | None = None,
    candidates: tuple[tuple[int, ...], ...] | None = None,
    analyses: tuple[str, ...] | None = None,
    attack_label: str | None = None,
) -> RunRecord:
    """Run one registered attack on one benchmark and classify it.

    ``with_oracle=None`` grants the oracle exactly when the family
    requires one; ``True``/``False`` force it (FALL runs oracle-less for
    the §VI-B headline, with an oracle for shortlist disambiguation).
    ``analyses`` restricts FALL's functional analyses (Figure 5).
    """
    family = get_attack(attack)
    grant_oracle = (
        family.requires_oracle if with_oracle is None else with_oracle
    )
    oracle = IOOracle(benchmark.original) if grant_oracle else None
    config = AttackConfig(
        h=benchmark.h,
        time_limit=time_limit,
        candidates=candidates,
        analyses=analyses,
    )
    result = run_attack(attack, benchmark.locked.circuit, oracle, config)
    solved, correct = _classify(benchmark, result)
    return RunRecord(
        benchmark=benchmark.name,
        attack=attack_label or result.attack,
        status=result.status,
        solved=solved,
        correct_key=correct,
        elapsed_seconds=result.elapsed_seconds,
        oracle_queries=result.oracle_queries,
        shortlist_size=len(result.candidates),
        details=_stable_details(result),
    )


@dataclass(frozen=True)
class SuiteTask:
    """One picklable (circuit, defense, attack) cell of an evaluation sweep.

    The worker rebuilds the benchmark from the profile's deterministic
    generation seed plus ``lock_seed``, so the task ships a few hundred
    bytes instead of a netlist, and the run is reproducible regardless
    of which worker executes it. ``attack`` names any registry entry.
    """

    profile: CircuitProfile
    h_label: str
    time_limit: float
    attack: str = "fall"
    with_oracle: bool | None = False
    lock_seed: int = 0


def run_suite_task(task: SuiteTask) -> RunRecord:
    """Build one benchmark cell and run its attack (worker entry)."""
    benchmark = build_benchmark(task.profile, task.h_label, task.lock_seed)
    return run_benchmark_attack(
        benchmark, task.attack, task.time_limit, with_oracle=task.with_oracle
    )


def run_suite(
    tasks: list[SuiteTask], jobs: int | None = None
) -> list[RunRecord]:
    """Run a list of suite cells, optionally across worker processes.

    ``jobs`` is the worker count (``None`` = every usable core);
    ``jobs=1`` runs sequentially in this process. Records are returned
    in task order either way, so summaries merged from them are
    independent of the worker count.
    """
    return map_in_processes(run_suite_task, tasks, jobs=jobs)
