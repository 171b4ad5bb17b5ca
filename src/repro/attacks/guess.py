"""Heuristic key guessing (the paper's §V motivation, SURF-style).

The paper motivates key confirmation with attacks like SURF [5] that
*guess* likely keys from structural/functional features but "cannot
guarantee that the key is correct. This is where key confirmation comes
in: it can convert a high-probability guess into a correct guess."

This module provides such a guesser: it runs FALL's structural stages
(comparator pairing, support-set matching, density ranking) and the
functional analyses on the best-ranked candidates, but *skips the
equivalence-checking confirmation* — returning fast, unverified key
guesses. :func:`guess_and_confirm`, the ``guess`` family, feeds them to
:func:`repro.attacks.key_confirmation.key_confirmation` when an oracle
is given (see also ``examples/guess_and_confirm.py``); the confirmation
step either certifies one guess or returns ⊥, exactly the division of
labour §V describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.attacks.base import TelemetryRecorder
from repro.attacks.fall.comparators import (
    find_comparators,
    pairing_from_comparators,
)
from repro.attacks.fall.pipeline import (
    FallReport,
    _analyze_candidate,
    _complement,
    _derive_keys,
    _density_order,
)
from repro.attacks.fall.support_match import candidate_strip_nodes
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.analysis import extract_cone, support_table
from repro.circuit.circuit import Circuit
from repro.errors import AttackError
from repro.utils.timer import Budget, Stopwatch

KeyVector = tuple[int, ...]

#: Most guesses one run returns.
MAX_GUESSES = 4


@dataclass
class GuessReport:
    """What the guesser looked at and what it produced."""

    guesses: list[KeyVector] = field(default_factory=list)
    nodes_examined: int = 0


def guess_keys(
    locked: Circuit,
    h: int,
    budget: Budget | None = None,
) -> GuessReport:
    """Produce up to :data:`MAX_GUESSES` unverified key guesses.

    Unlike :func:`repro.attacks.fall.fall_attack`, recovered cubes are
    *not* confirmed by equivalence checking, so the output may contain
    wrong keys — by design: verification is key confirmation's job.
    """
    if h < 0:
        raise AttackError(f"invalid Hamming distance parameter h={h}")
    budget = budget or Budget.unlimited()
    report = GuessReport()
    key_names = locked.key_inputs
    if not key_names:
        raise AttackError("circuit has no key inputs to attack")

    supports = support_table(locked)
    comparators = find_comparators(locked, supports=supports)
    pairing = pairing_from_comparators(comparators)
    if not comparators:
        return report
    candidates = candidate_strip_nodes(locked, comparators, supports=supports)
    if not candidates:
        return report

    # Analyze the best-ranked few, in the full pipeline's density order,
    # without confirmation.
    m = len(pairing)
    ordered, _ = _density_order(locked, candidates, h, m)
    scratch = FallReport()
    for node in ordered:
        if len(report.guesses) >= MAX_GUESSES or budget.expired:
            break
        cone = extract_cone(locked, node)
        for variant in (cone, _complement(cone)):
            report.nodes_examined += 1
            cube = _analyze_candidate(variant, h, budget.sub(10.0), scratch)
            if cube is None:
                continue
            for key in _derive_keys(cube, pairing, key_names, h, m):
                if key not in report.guesses:
                    report.guesses.append(key)
            break
    return report


def guess_and_confirm(
    locked: Circuit,
    oracle: IOOracle | None,
    h: int,
    budget: Budget,
    telemetry: TelemetryRecorder | None,
) -> AttackResult:
    """Guess keys, then confirm them through key confirmation.

    Without an oracle the guesses come back unverified, as
    MULTIPLE_CANDIDATES. With one, the result is key confirmation's,
    ``verification`` and ``approximate`` details included.
    """
    stopwatch = Stopwatch()
    telemetry = telemetry or TelemetryRecorder()
    with telemetry.stage("guess"):
        report = guess_keys(locked, h=h, budget=budget)
    guesses = tuple(report.guesses)
    if not guesses:
        status = AttackStatus.TIMEOUT if budget.expired else AttackStatus.FAILED
        result = AttackResult("guess", status)
    elif oracle is None:
        result = AttackResult(
            "guess", AttackStatus.MULTIPLE_CANDIDATES, candidates=guesses
        )
    else:
        with telemetry.stage("confirm"):
            result = key_confirmation(
                locked, oracle, guesses, budget=budget, telemetry=telemetry
            )
    return replace(
        result,
        attack="guess",
        key_names=locked.key_inputs,
        elapsed_seconds=stopwatch.elapsed,
        details={
            **result.details,
            "nodes_examined": report.nodes_examined,
            "guesses": [list(guess) for guess in guesses],
        },
    )
