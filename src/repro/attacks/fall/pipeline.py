"""The full FALL attack pipeline (paper Figure 4).

Stages, each recorded as a telemetry stage of the same name:

1. ``comparators`` (§III-A) — pairing of key inputs with circuit
   inputs, and the protected-input set Compx;
2. ``support_match`` (§III-B) — candidate cube-stripper nodes;
3. ``functional_analysis`` — the scan over the candidates, in the
   order of a density prefilter (one random simulation ranks them by
   how closely their signal density matches strip_h's, just before the
   stage starts). It rejects the polarities whose density cannot match
   (and, for h = 0, those a sampled unateness check refutes); the
   survivors go through the functional analyses (§IV-B) —
   AnalyzeUnateness for h = 0, Distance2H (when 4h ≤ m) and
   SlidingWindow (when 2h < m) for h > 0, on the candidate cone or its
   complement (the netlist may contain ¬F rather than F) — and cube
   confirmation against strip_h (§IV-C);
4. ``key_derivation`` — confirmed cubes mapped onto keys through the
   comparator pairing;
5. ``key_confirmation`` (§V) — only with an I/O oracle, when more than
   one key survives or the budget cut the scan short; the result keeps
   its ``verification`` and ``approximate`` details.

The attack is oracle-less whenever a completed scan leaves exactly one
key — the paper's headline practicality claim (90% of its successful
runs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attacks.fall.comparators import (
    Comparator,
    find_comparators,
    pairing_from_comparators,
)
from repro.attacks.fall.distance2h import distance_2h
from repro.attacks.fall.equivalence import confirm_cube
from repro.attacks.fall.prefilter import passes_unateness_sim, strip_density
from repro.attacks.fall.sliding_window import sliding_window
from repro.attacks.base import TelemetryRecorder
from repro.attacks.fall.support_match import candidate_strip_nodes
from repro.attacks.fall.unateness import analyze_unateness
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.analysis import extract_cone, support_table
from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.sharding import sweep_node_values
from repro.errors import AttackError
from repro.utils.timer import Budget, Stopwatch

_DENSITY_PATTERNS = 512
_DENSITY_MARGIN = 2.0
_MIN_DENSITY_THRESHOLD = 0.02

KeyVector = tuple[int, ...]


@dataclass
class FallReport:
    """Stage-by-stage record of a FALL run (stored in result.details)."""

    comparators: list[Comparator] = field(default_factory=list)
    pairing: dict[str, str] = field(default_factory=dict)
    candidate_nodes: list[str] = field(default_factory=list)
    confirmed_cubes: list[dict[str, int]] = field(default_factory=list)
    candidate_keys: list[KeyVector] = field(default_factory=list)
    analyses_attempted: int = 0
    prefilter_rejections: int = 0
    oracle_less: bool = False
    scan_complete: bool = True


def fall_attack(
    locked: Circuit,
    h: int,
    oracle: IOOracle | None = None,
    budget: Budget | None = None,
    analyses: tuple[str, ...] | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the FALL attack against a TTLock/SFLL-HDh locked netlist.

    The adversary knows the locking algorithm and its parameter ``h``
    (paper §II-A) and may optionally hold an I/O ``oracle``. Returns
    SUCCESS with the key, MULTIPLE_CANDIDATES with the shortlist when no
    oracle can disambiguate, FAILED, or TIMEOUT.
    """
    if h < 0:
        raise AttackError(f"invalid Hamming distance parameter h={h}")
    stopwatch = Stopwatch()
    telemetry = telemetry or TelemetryRecorder()
    budget = budget or Budget.unlimited()
    report = FallReport()
    key_names = locked.key_inputs
    queries_before = oracle.query_count if oracle is not None else 0

    def result(status: AttackStatus, key=None, **details) -> AttackResult:
        return AttackResult(
            attack=f"fall-hd{h}",
            status=status,
            key=key,
            key_names=key_names,
            candidates=tuple(report.candidate_keys),
            elapsed_seconds=stopwatch.elapsed,
            oracle_queries=(
                oracle.query_count - queries_before if oracle is not None else 0
            ),
            details={"report": report, **details},
        )

    with telemetry.stage("comparators") as stage:
        supports = support_table(locked)
        report.comparators = find_comparators(locked, supports=supports)
        report.pairing = pairing_from_comparators(report.comparators)
        stage.record(found=len(report.comparators))
    if not report.comparators:
        return result(AttackStatus.FAILED)

    with telemetry.stage("support_match") as stage:
        report.candidate_nodes = candidate_strip_nodes(
            locked, report.comparators, supports=supports
        )
        stage.record(candidates=len(report.candidate_nodes))
    if not report.candidate_nodes:
        return result(AttackStatus.FAILED)

    # The density prefilter: the true stripper is analyzed first, so a
    # budget-truncated scan still finds it, and a density far from
    # strip_h's C(m,h)/2^m rejects a polarity outright.
    m = len(report.pairing)
    ordered_candidates, density = _density_order(
        locked, report.candidate_nodes, h, m
    )
    density_threshold = max(
        _MIN_DENSITY_THRESHOLD, _DENSITY_MARGIN * strip_density(m, h)
    )

    # Functional analyses + equivalence confirmation.
    with telemetry.stage("functional_analysis") as stage:
        confirmed: list[dict[str, int]] = []
        for candidate_index, node in enumerate(ordered_candidates):
            if budget.expired:
                break
            try_plain = density[node] <= density_threshold
            try_complement = (1.0 - density[node]) <= density_threshold
            if not (try_plain or try_complement):
                # Both polarities fail the density test: no cone needed.
                report.prefilter_rejections += 2
                continue
            # Geometric budget slicing: the best-ranked candidate may use
            # up to half the remaining budget, the next half of what is
            # left, and so on — density ranking puts the true stripper
            # first, so front-loading the budget is the right trade.
            slice_seconds = max(2.0, budget.remaining / 2.0)
            candidate_budget = budget.sub(slice_seconds)
            cone = extract_cone(locked, node)
            analysed = False
            for polarity, wanted in enumerate((try_plain, try_complement)):
                if candidate_budget.expired:
                    break
                if not wanted:
                    report.prefilter_rejections += 1
                    continue
                variant = cone if polarity == 0 else _complement(cone)
                if h == 0 and not passes_unateness_sim(variant):
                    report.prefilter_rejections += 1
                    continue
                if not analysed:
                    telemetry.iteration(
                        "functional_analysis", candidate_index, node=node
                    )
                    analysed = True
                cube = _analyze_candidate(
                    variant, h, candidate_budget, report, analyses=analyses
                )
                if cube is None:
                    continue
                if confirm_cube(variant, cube, h, budget=candidate_budget):
                    confirmed.append(cube)
                    break
        stage.record(
            analyses=report.analyses_attempted,
            prefilter_rejections=report.prefilter_rejections,
            confirmed=len(confirmed),
        )
    report.scan_complete = not budget.expired

    # Deduplicate cubes and derive keys through the comparator pairing.
    with telemetry.stage("key_derivation") as stage:
        seen: set[tuple[tuple[str, int], ...]] = set()
        keys: list[KeyVector] = []
        for cube in confirmed:
            signature = tuple(sorted(cube.items()))
            if signature in seen:
                continue
            seen.add(signature)
            report.confirmed_cubes.append(cube)
            derived = _derive_keys(cube, report.pairing, key_names, h, m)
            for key in derived:
                if key not in keys:
                    keys.append(key)
        report.candidate_keys = keys
        stage.record(keys=len(keys))

    if not keys:
        if budget.expired:
            return result(AttackStatus.TIMEOUT)
        return result(AttackStatus.FAILED)
    if len(keys) == 1 and report.scan_complete:
        # The paper's oracle-less outcome: a completed scan shortlisting
        # exactly one key needs no confirmation (§VI-B, 58/65 circuits).
        report.oracle_less = True
        return result(AttackStatus.SUCCESS, key=keys[0])

    # Stage 5: key confirmation (needs an oracle). Also reached when the
    # scan was cut short by the budget: a partial shortlist cannot claim
    # uniqueness, so any recovered key must be confirmed.
    if oracle is None:
        if not report.scan_complete:
            return result(AttackStatus.TIMEOUT)
        return result(AttackStatus.MULTIPLE_CANDIDATES)
    with telemetry.stage("key_confirmation", shortlist=len(keys)):
        confirmation = key_confirmation(
            locked, oracle, keys, budget=budget, telemetry=telemetry
        )
    return result(
        confirmation.status,
        key=confirmation.key,
        verification=confirmation.details["verification"],
        approximate=confirmation.approximate,
    )


def _density_order(
    locked: Circuit, nodes: list[str], h: int, m: int
) -> tuple[list[str], dict[str, float]]:
    """``nodes`` by how closely their signal density (or its complement)
    matches strip_h's, and every node's density from one bit-parallel
    random simulation of the candidate cones."""
    rng = random.Random(1)
    sim_inputs = {
        name: rng.getrandbits(_DENSITY_PATTERNS) for name in locked.inputs
    }
    words = sweep_node_values(
        locked, tuple(nodes), sim_inputs, width=_DENSITY_PATTERNS
    )
    density = {
        node: word.bit_count() / _DENSITY_PATTERNS
        for node, word in zip(nodes, words)
    }
    expected = strip_density(m, h)

    def rank(node: str) -> tuple[float, str]:
        distance = min(
            abs(density[node] - expected),
            abs((1.0 - density[node]) - expected),
        )
        return (distance, node)

    return sorted(nodes, key=rank), density


def _complement(cone: Circuit) -> Circuit:
    """The cone with its output negated (the netlist may realize ¬F)."""
    complement = cone.copy(name=f"{cone.name}~neg")
    output = complement.outputs[0]
    negated = complement.fresh_name("fall_neg")
    complement.add_gate(negated, GateType.NOT, [output])
    complement.replace_output(output, negated)
    return complement


ANALYSIS_NAMES = ("unateness", "distance2h", "sliding_window")


def _analyze_candidate(
    cone: Circuit,
    h: int,
    budget: Budget,
    report: FallReport,
    analyses: tuple[str, ...] | None = None,
) -> dict[str, int] | None:
    """Dispatch to the applicable functional analyses (paper §IV-B).

    Default selection follows the paper: AnalyzeUnateness for h = 0,
    otherwise Distance2H (when 4h ≤ m) with SlidingWindow as fallback
    (when 2h < m). ``analyses`` restricts the set explicitly — the
    Figure 5 harness uses this to time each algorithm separately.
    """
    m = len(cone.inputs)
    if analyses is None:
        analyses = ("unateness",) if h == 0 else ("distance2h", "sliding_window")
    cube = None
    for name in analyses:
        if cube is not None:
            break
        if name == "unateness":
            if h != 0:
                continue
            report.analyses_attempted += 1
            cube = analyze_unateness(cone, budget=budget)
        elif name == "distance2h":
            if 4 * h > m:
                continue
            report.analyses_attempted += 1
            cube = distance_2h(cone, h, budget=budget)
        elif name == "sliding_window":
            if 2 * h >= m and h > 0:
                continue
            report.analyses_attempted += 1
            cube = sliding_window(cone, h, budget=budget)
        else:
            raise AttackError(
                f"unknown analysis {name!r}; choose from {ANALYSIS_NAMES}"
            )
    return cube


def _derive_keys(
    cube: dict[str, int],
    pairing: dict[str, str],
    key_names: tuple[str, ...],
    h: int,
    m: int,
) -> list[KeyVector]:
    """Map a protected cube onto key inputs via the comparator pairing.

    When 2h == m the stripping function is complement-symmetric
    (HD(K, X) = h iff HD(¬K, X) = m - h = h), so the complement key is
    an equally valid answer and both are shortlisted — one source of the
    multi-key shortlists reported in §VI-B.
    """
    bits_by_key: dict[str, int] = {}
    for circuit_input, key_input in pairing.items():
        if circuit_input in cube:
            bits_by_key[key_input] = cube[circuit_input]
    if set(bits_by_key) != set(key_names):
        return []
    key = tuple(bits_by_key[name] for name in key_names)
    keys = [key]
    if h > 0 and 2 * h == m:
        complement = tuple(1 - bit for bit in key)
        if complement != key:
            keys.append(complement)
    return keys
