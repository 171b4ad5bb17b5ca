"""Heuristic key guessing (the paper's §V motivation, SURF-style).

The paper motivates key confirmation with attacks like SURF [5] that
*guess* likely keys from structural/functional features but "cannot
guarantee that the key is correct. This is where key confirmation comes
in: it can convert a high-probability guess into a correct guess."

This module provides such a guesser: it runs FALL's structural stages
(comparator pairing, support-set matching, density ranking) and the
functional analyses on the best-ranked candidates, but *skips the
equivalence-checking confirmation* — returning fast, unverified key
guesses. Feeding them to :func:`repro.attacks.key_confirmation` is the
intended workflow (see ``examples/guess_and_confirm.py``); the
confirmation step either certifies one guess or returns ⊥, exactly the
division of labour §V describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.fall.comparators import (
    find_comparators,
    pairing_from_comparators,
)
from repro.attacks.fall.pipeline import _analyze_candidate, FallReport
from repro.attacks.fall.prefilter import strip_density
from repro.attacks.fall.support_match import candidate_strip_nodes
from repro.circuit.analysis import extract_cone, support_table
from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.circuit.gates import GateType
from repro.errors import AttackError
from repro.utils.rng import make_rng
from repro.utils.timer import Budget

KeyVector = tuple[int, ...]


@dataclass
class GuessReport:
    """What the guesser looked at and what it produced."""

    guesses: list[KeyVector] = field(default_factory=list)
    nodes_examined: int = 0
    pairing: dict[str, str] = field(default_factory=dict)


def guess_keys(
    locked: Circuit,
    h: int,
    max_guesses: int = 4,
    budget: Budget | None = None,
) -> GuessReport:
    """Produce up to ``max_guesses`` unverified key guesses.

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
    report.pairing = pairing_from_comparators(comparators)
    if not comparators:
        return report
    candidates = candidate_strip_nodes(locked, comparators, supports=supports)
    if not candidates:
        return report

    # Rank candidates by density proximity to strip_h, like the full
    # pipeline, and analyze the best few without confirmation. One wide
    # pass over just the candidate cones yields every density at once.
    patterns = 256
    rng = make_rng(2)
    engine = compile_circuit(locked)
    sim_inputs = {name: rng.getrandbits(patterns) for name in locked.inputs}
    candidate_words = engine.node_values(
        tuple(candidates), sim_inputs, width=patterns
    )
    density = {
        node: word.bit_count() / patterns
        for node, word in zip(candidates, candidate_words)
    }
    expected = strip_density(len(report.pairing), h)

    def rank(node: str) -> tuple[float, str]:
        return (
            min(
                abs(density[node] - expected),
                abs((1.0 - density[node]) - expected),
            ),
            node,
        )

    scratch = FallReport()
    for node in sorted(candidates, key=rank):
        if len(report.guesses) >= max_guesses or budget.expired:
            break
        cone = extract_cone(locked, node)
        for variant in _polarities(cone):
            report.nodes_examined += 1
            cube = _analyze_candidate(variant, h, budget.sub(10.0), scratch)
            if cube is None:
                continue
            key = _cube_to_key(cube, report.pairing, key_names)
            if key is not None and key not in report.guesses:
                report.guesses.append(key)
            break
    return report


def _polarities(cone: Circuit):
    yield cone
    complement = cone.copy(name=f"{cone.name}~neg")
    output = complement.outputs[0]
    negated = complement.fresh_name("guess_neg")
    complement.add_gate(negated, GateType.NOT, [output])
    complement.replace_output(output, negated)
    yield complement


def _cube_to_key(
    cube: dict[str, int],
    pairing: dict[str, str],
    key_names: tuple[str, ...],
) -> KeyVector | None:
    bits = {}
    for circuit_input, key_input in pairing.items():
        if circuit_input in cube:
            bits[key_input] = cube[circuit_input]
    if set(bits) != set(key_names):
        return None
    return tuple(bits[name] for name in key_names)
