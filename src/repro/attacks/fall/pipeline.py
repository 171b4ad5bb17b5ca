"""The full FALL attack pipeline (paper Figure 4).

Stages:

1. comparator identification (§III-A) — pairing of key inputs with
   circuit inputs, and the protected-input set Compx;
2. support-set matching (§III-B) — candidate cube-stripper nodes;
3. functional analyses (§IV-B) — AnalyzeUnateness for h = 0,
   Distance2H (when 4h ≤ m) and SlidingWindow (when 2h < m) for h > 0,
   each run on the candidate cone and on its complement (the netlist
   may contain ¬F rather than F);
4. equivalence checking (§IV-C) — cube confirmation against strip_h;
5. key confirmation (§V) — only when more than one candidate key
   survives and an I/O oracle is available.

The attack is oracle-less whenever stage 4 leaves exactly one key —
the paper's headline practicality claim (90% of its successful runs).
"""

from __future__ import annotations

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
from repro.attacks.base import TelemetryRecorder, telemetry_or_null
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
from repro.utils.rng import make_rng
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
    stage_seconds: dict[str, float] = field(default_factory=dict)
    oracle_less: bool = False
    used_key_confirmation: bool = False
    scan_complete: bool = True


def fall_attack(
    locked: Circuit,
    h: int,
    oracle: IOOracle | None = None,
    budget: Budget | None = None,
    max_candidates: int | None = None,
    use_prefilter: bool = True,
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
    telemetry = telemetry_or_null(telemetry)
    budget = budget or Budget.unlimited()
    report = FallReport()
    key_names = locked.key_inputs
    queries_before = oracle.query_count if oracle is not None else 0

    def result(status: AttackStatus, key=None) -> AttackResult:
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
            details={"report": report},
        )

    # Stage 1: comparator identification.
    stage = Stopwatch()
    supports = support_table(locked)
    report.comparators = find_comparators(locked, supports=supports)
    report.pairing = pairing_from_comparators(report.comparators)
    report.stage_seconds["comparators"] = stage.elapsed
    telemetry.stage_done(
        "comparators", stage.elapsed, found=len(report.comparators)
    )
    if not report.comparators:
        return result(AttackStatus.FAILED)

    # Stage 2: support-set matching.
    stage.restart()
    report.candidate_nodes = candidate_strip_nodes(
        locked, report.comparators, supports=supports, limit=max_candidates
    )
    report.stage_seconds["support_match"] = stage.elapsed
    telemetry.stage_done(
        "support_match", stage.elapsed, candidates=len(report.candidate_nodes)
    )
    if not report.candidate_nodes:
        return result(AttackStatus.FAILED)

    # Stage 2.5: one bit-parallel random simulation over the candidate
    # cones yields every candidate's signal density. Candidates are
    # ordered by how closely their density matches strip_h's C(m,h)/2^m
    # (the true stripper is analyzed first, so a budget-truncated scan
    # still finds it), and density incompatibility rejects polarities
    # outright.
    m = len(report.pairing)
    rng = make_rng(1)
    sim_inputs = {
        name: rng.getrandbits(_DENSITY_PATTERNS) for name in locked.inputs
    }
    candidate_words = sweep_node_values(
        locked, tuple(report.candidate_nodes), sim_inputs,
        width=_DENSITY_PATTERNS,
    )
    density = {
        node: word.bit_count() / _DENSITY_PATTERNS
        for node, word in zip(report.candidate_nodes, candidate_words)
    }
    expected_density = strip_density(m, h)
    density_threshold = max(
        _MIN_DENSITY_THRESHOLD, _DENSITY_MARGIN * expected_density
    )

    def density_rank(node: str) -> tuple[float, str]:
        distance = min(
            abs(density[node] - expected_density),
            abs((1.0 - density[node]) - expected_density),
        )
        return (distance, node)

    ordered_candidates = sorted(report.candidate_nodes, key=density_rank)

    # Stages 3+4: functional analyses + equivalence confirmation.
    stage.restart()
    confirmed: list[dict[str, int]] = []
    for candidate_index, node in enumerate(ordered_candidates):
        if budget.expired:
            break
        telemetry.iteration(
            "functional_analysis", candidate_index, node=node
        )
        # Geometric budget slicing: the best-ranked candidate may use up
        # to half the remaining budget, the next half of what is left,
        # and so on — density ranking puts the true stripper first, so
        # front-loading the budget is the right trade.
        slice_seconds = max(2.0, budget.remaining / 2.0)
        candidate_budget = budget.sub(slice_seconds)
        cone = extract_cone(locked, node)
        if use_prefilter:
            try_plain = density[node] <= density_threshold
            try_complement = (1.0 - density[node]) <= density_threshold
        else:
            try_plain = try_complement = True
        for polarity, variant in enumerate(_cone_polarities(cone)):
            if candidate_budget.expired:
                break
            wanted = try_plain if polarity == 0 else try_complement
            if not wanted:
                report.prefilter_rejections += 1
                continue
            if use_prefilter and h == 0 and not passes_unateness_sim(variant):
                report.prefilter_rejections += 1
                continue
            cube = _analyze_candidate(
                variant, h, candidate_budget, report, analyses=analyses
            )
            if cube is None:
                continue
            verdict = confirm_cube(variant, cube, h, budget=candidate_budget)
            if verdict:
                confirmed.append(cube)
                break
    report.stage_seconds["functional_analysis"] = stage.elapsed
    telemetry.stage_done(
        "functional_analysis",
        stage.elapsed,
        analyses=report.analyses_attempted,
        confirmed=len(confirmed),
    )
    report.scan_complete = not budget.expired

    # Deduplicate cubes and derive keys through the comparator pairing.
    stage.restart()
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
    report.stage_seconds["key_derivation"] = stage.elapsed
    telemetry.stage_done("key_derivation", stage.elapsed, keys=len(keys))

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
    report.used_key_confirmation = True
    with telemetry.stage("key_confirmation", shortlist=len(keys)):
        confirmation = key_confirmation(
            locked, oracle, keys, budget=budget, telemetry=telemetry
        )
    if confirmation.status is AttackStatus.SUCCESS:
        return result(AttackStatus.SUCCESS, key=confirmation.key)
    if confirmation.status is AttackStatus.TIMEOUT:
        return result(AttackStatus.TIMEOUT)
    return result(AttackStatus.FAILED)


def _cone_polarities(cone: Circuit):
    """The cone and its complement (the netlist may realize ¬F)."""
    yield cone
    complement = cone.copy(name=f"{cone.name}~neg")
    output = complement.outputs[0]
    negated = complement.fresh_name("fall_neg")
    complement.add_gate(negated, GateType.NOT, [output])
    complement.replace_output(output, negated)
    yield complement


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
