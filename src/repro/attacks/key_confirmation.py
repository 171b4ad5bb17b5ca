"""Key confirmation (paper §V, Algorithm 4).

The paper's second contribution: an extension of the SAT attack that
takes a predicate φ over the key inputs — typically "the key is one of
these shortlisted values" — and an I/O oracle, and returns a key
satisfying φ that is consistent with the oracle, or ⊥ if none exists.

Two solver instances implement the formula sequences P_i and Q_i:

- ``P`` produces candidate keys consistent with φ and the I/O patterns
  observed so far (P_1 = φ, P_{i+1} = P_i ∧ C(Xd_i, K1, Yd_i));
- ``Q`` produces distinguishing inputs for a *fixed* candidate key
  (Q_1 = C(X, K1, Y1) ∧ C(X, K2, Y2) ∧ Y1 ≠ Y2,
  Q_{i+1} = Q_i ∧ C(Xd_i, K2, Yd_i)), solved under the assumption
  K1 = K_i.

P going UNSAT means φ was wrong (⊥); Q going UNSAT means no
distinguishing input remains and K_i is correct (Lemma 4). The split is
what distinguishes the two UNSAT outcomes — impossible in the original
single-solver SAT attack — and restricting the search to φ is what
makes the attack cheap even on SAT-attack-resilient circuits.

With φ = true the algorithm devolves into the standard SAT attack,
which :func:`repro.attacks.cegis.sat_attack` implements; this module
always takes a shortlist.

Implementation notes (how the measured Figure 6 behaviour is achieved):

1. **Probe mining.** The informative input patterns — those in a
   candidate key's error shell — occupy an exponentially small corner
   of the input space, and a CDCL model generator left to its own
   devices rarely lands there (the easy way to satisfy ``Y1 ≠ Y2`` is
   to mirror X into K2, one useless oracle query per iteration). Before
   the loop we therefore mine counterexamples between pairs of
   *keyed* circuits — shortlist pairs plus single-bit perturbations of
   each candidate — and query the oracle exactly there. Each probe
   refutes at least one key of its pair (or tests the candidate's own
   shell, for the perturbation pairs) and adds shell constraints that
   collapse Q's K2 space.

2. **Two-tier termination.** Exactly certifying a key against *all*
   2^m rivals is information-theoretically exponential in oracle
   queries for point-corruption schemes (that is SARLock's entire
   design), so the loop first runs with K2 restricted to φ (fast,
   always terminates: it disambiguates the shortlist) and then
   *attempts* the unrestricted Lemma 4 certificate under a bounded
   conflict budget. The result records which level was reached:
   ``details['verification']`` is ``"exact"`` when line 10's UNSAT was
   proved against an unrestricted K2, else ``"phi-relative"`` (the
   returned key is the unique φ member consistent with every
   observation — the guarantee that matters when φ came from FALL's
   stage 1).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.attacks.base import TelemetryRecorder
from repro.attacks.cegis import check_attack_inputs, constrain_io
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit, encode_under_assignment
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_difference_bits, encode_xor
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget, Stopwatch

KeyVector = tuple[int, ...]

#: Counterexamples mined per key pair before the loop (note 1).
PROBE_ROUNDS = 4
#: Conflict budget of each unrestricted certification solve (note 2).
CERTIFY_CONFLICTS = 50_000
_CERTIFY_MAX_DIS = 6


def encode_key_shortlist(
    cnf: Cnf,
    key_vars: dict[str, int],
    key_names: Sequence[str],
    candidates: Sequence[Sequence[int]],
    guard: int | None = None,
) -> None:
    """Encode φ(K) = "K is one of the candidate vectors".

    One selector variable per candidate, implication clauses binding the
    key bits, and a disjunction over the selectors (the paper's example
    φ for a two-key shortlist, §V). With ``guard``, the disjunction is
    conditioned on the guard literal so the restriction can be switched
    on per solve via assumptions (used for Q's tier-1 runs).
    """
    if not candidates:
        raise AttackError("empty candidate shortlist")
    selectors = []
    for candidate in candidates:
        if len(candidate) != len(key_names):
            raise AttackError(
                f"candidate width {len(candidate)} != key width {len(key_names)}"
            )
        selector = cnf.new_var()
        selectors.append(selector)
        for name, bit in zip(key_names, candidate):
            var = key_vars[name]
            cnf.add_clause([-selector, var if bit else -var])
    if guard is None:
        cnf.add_clause(selectors)
    else:
        cnf.add_clause([-guard] + selectors)


def key_confirmation(
    locked: Circuit,
    oracle: IOOracle,
    candidates: Sequence[KeyVector],
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run Algorithm 4 (with probe mining and two-tier termination).

    ``candidates`` is the shortlist defining φ.

    Returns SUCCESS with the confirmed key (``details['verification']``
    tells whether the Lemma 4 certificate was completed; a
    ``"phi-relative"`` key is also flagged ``details['approximate']``),
    FAILED when no shortlisted key is consistent with the oracle (the ⊥
    outcome), or TIMEOUT.
    """
    stopwatch = Stopwatch()
    telemetry = telemetry or TelemetryRecorder()
    check_attack_inputs(locked, oracle)
    key_names = locked.key_inputs
    input_names = locked.circuit_inputs
    output_names = locked.outputs
    queries_before = oracle.query_count

    # P: candidate-key producer over its own variable space.
    p_cnf = Cnf()
    p_key_vars = {name: p_cnf.new_var() for name in key_names}
    encode_key_shortlist(p_cnf, p_key_vars, key_names, candidates)
    p_solver = Solver()
    p_solver.add_cnf(p_cnf)
    p_cnf.clauses.clear()

    # Q: distinguishing-input generator (double instantiation + miter).
    q_cnf = Cnf()
    x_vars = {name: q_cnf.new_var() for name in input_names}
    k1_vars = {name: q_cnf.new_var() for name in key_names}
    k2_vars = {name: q_cnf.new_var() for name in key_names}
    enc1 = encode_circuit(locked, q_cnf, shared_vars={**x_vars, **k1_vars})
    enc2 = encode_circuit(locked, q_cnf, shared_vars={**x_vars, **k2_vars})
    q_cnf.add_clause(
        encode_difference_bits(q_cnf, enc1.lits(output_names), enc2.lits(output_names))
    )
    # Tier-1 guard: when assumed true, K2 must be a shortlist member.
    phi2_guard = q_cnf.new_var()
    encode_key_shortlist(q_cnf, k2_vars, key_names, candidates, guard=phi2_guard)
    q_solver = Solver(random_phase=0.2)
    q_solver.add_cnf(q_cnf)
    q_cnf.clauses.clear()

    def result(
        status: AttackStatus, key=None, iterations=0, verification="phi-relative"
    ) -> AttackResult:
        return AttackResult(
            attack="key-confirmation",
            status=status,
            key=key,
            key_names=key_names,
            candidates=tuple(tuple(c) for c in candidates),
            elapsed_seconds=stopwatch.elapsed,
            oracle_queries=oracle.query_count - queries_before,
            iterations=iterations,
            details={
                "p_solver": p_solver.stats.as_dict(),
                "q_solver": q_solver.stats.as_dict(),
                "verification": verification if key is not None else None,
                # Correct only if φ holds a correct key, which the attack
                # cannot know: a locked netlist may have several.
                "approximate": key is not None
                and verification == "phi-relative",
            },
        )

    def absorb_observation(
        pattern: dict[str, int], observed: dict[str, int]
    ) -> None:
        """P_{i+1} = P_i ∧ C(Xd, K1, Yd); Q_{i+1} = Q_i ∧ C(Xd, K2, Yd)."""
        constrain_io(locked, p_cnf, pattern, observed, p_key_vars)
        p_solver.add_cnf(p_cnf)
        p_cnf.clauses.clear()
        constrain_io(locked, q_cnf, pattern, observed, k2_vars)
        q_solver.add_cnf(q_cnf)
        q_cnf.clauses.clear()

    # Probe mining (module docstring note 1). Mining is independent of
    # the observations, so all probes are collected first and replayed
    # against the oracle as one batched wide simulation.
    with telemetry.stage("probe_mining"):
        probes = list(_mine_probes(locked, candidates, key_names, budget))
        for pattern, observed in zip(probes, oracle.query_batch(probes)):
            absorb_observation(pattern, observed)
        telemetry.count("probes", len(probes))

    iteration = 0
    certification_dis = 0
    while True:
        if budget is not None and budget.expired:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        if max_iterations is not None and iteration >= max_iterations:
            return result(AttackStatus.TIMEOUT, iterations=iteration)

        p_status = p_solver.solve(budget=budget)
        if p_status is SolveStatus.UNKNOWN:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        if p_status is SolveStatus.UNSAT:
            # ⊥: no key satisfying φ is consistent with the oracle.
            return result(AttackStatus.FAILED, iterations=iteration)
        candidate = tuple(
            int(p_solver.model_value(p_key_vars[n])) for n in key_names
        )
        k1_assumptions = [
            k1_vars[n] if bit else -k1_vars[n]
            for n, bit in zip(key_names, candidate)
        ]

        # Tier 1: distinguish the candidate from other φ members.
        q_status = q_solver.solve(
            assumptions=k1_assumptions + [phi2_guard], budget=budget
        )
        if q_status is SolveStatus.UNKNOWN:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        if q_status is SolveStatus.SAT:
            iteration += 1
            distinguishing = {
                name: int(q_solver.model_value(var))
                for name, var in x_vars.items()
            }
            absorb_observation(distinguishing, oracle.query(distinguishing))
            telemetry.iteration(
                "tier1",
                iteration,
                oracle_queries=oracle.query_count - queries_before,
            )
            continue
        # UNSAT: no φ rival distinguishes itself from the candidate.

        # Tier 2: attempt the unrestricted Lemma 4 certificate.
        q_status = q_solver.solve(
            assumptions=k1_assumptions,
            budget=budget,
            conflict_limit=CERTIFY_CONFLICTS,
        )
        if q_status is SolveStatus.UNSAT:
            return result(
                AttackStatus.SUCCESS,
                key=candidate,
                iterations=iteration,
                verification="exact",
            )
        if q_status is SolveStatus.UNKNOWN:
            # Bounded certification exhausted: the candidate is the
            # unique φ member consistent with all observations.
            return result(
                AttackStatus.SUCCESS, key=candidate, iterations=iteration
            )
        # SAT: a global distinguishing input exists — query it (it may
        # even refute the candidate), but bound how long we chase the
        # exponential tail of point-corruption schemes.
        iteration += 1
        distinguishing = {
            name: int(q_solver.model_value(var)) for name, var in x_vars.items()
        }
        absorb_observation(distinguishing, oracle.query(distinguishing))
        telemetry.iteration(
            "tier2",
            iteration,
            oracle_queries=oracle.query_count - queries_before,
        )
        certification_dis += 1
        if certification_dis >= _CERTIFY_MAX_DIS:
            # Re-check the candidate is still alive in P, then accept.
            p_status = p_solver.solve(budget=budget)
            if p_status is SolveStatus.SAT:
                survivor = tuple(
                    int(p_solver.model_value(p_key_vars[n]))
                    for n in key_names
                )
                if survivor == candidate:
                    return result(
                        AttackStatus.SUCCESS,
                        key=candidate,
                        iterations=iteration,
                    )
            certification_dis = 0


def _mine_probes(
    locked: Circuit,
    candidates: Sequence[KeyVector],
    key_names: Sequence[str],
    budget: Budget | None,
):
    """Yield inputs on which pairs of keyed circuits provably differ.

    Pairs are (a) the shortlist pairs (all of them for small shortlists,
    a covering chain for large ones) and (b) single-bit perturbations of
    each candidate — the latter make the probes explore each candidate's
    *own* error shell, which is what refutes a wrong singleton guess and
    pins Q's K2 space around a correct one.
    """
    keys = [tuple(k) for k in candidates]
    width = len(key_names)
    pairs: list[tuple[KeyVector, KeyVector]] = []
    if len(keys) <= 6:
        pairs.extend(
            (keys[i], keys[j])
            for i in range(len(keys))
            for j in range(i + 1, len(keys))
        )
    else:
        pairs.extend(zip(keys, keys[1:]))
        pairs.append((keys[-1], keys[0]))
    for key in keys:
        for position in {0, width // 2}:
            flipped = list(key)
            flipped[position] ^= 1
            pairs.append((key, tuple(flipped)))

    seen_pairs: set[tuple[KeyVector, KeyVector]] = set()
    for key_a, key_b in pairs:
        canonical = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        if canonical in seen_pairs or key_a == key_b:
            continue
        seen_pairs.add(canonical)
        if budget is not None and budget.expired:
            return
        cnf = Cnf()
        x_vars = {name: cnf.new_var() for name in locked.circuit_inputs}
        enc_a = encode_under_assignment(
            locked, cnf, fixed=dict(zip(key_names, key_a)), shared_vars=x_vars
        )
        enc_b = encode_under_assignment(
            locked, cnf, fixed=dict(zip(key_names, key_b)), shared_vars=x_vars
        )
        diff_lits: list[int] = []
        always_different = False
        for out in locked.outputs:
            a_const = enc_a.consts.get(out)
            b_const = enc_b.consts.get(out)
            if a_const is not None and b_const is not None:
                if a_const != b_const:
                    always_different = True
                continue
            if a_const is not None:
                lit = enc_b.lits[out]
                diff_lits.append(-lit if a_const else lit)
            elif b_const is not None:
                lit = enc_a.lits[out]
                diff_lits.append(-lit if b_const else lit)
            else:
                diff_lits.append(encode_xor(cnf, enc_a.lits[out], enc_b.lits[out]))
        if not always_different:
            if not diff_lits:
                continue  # the two keys are functionally identical
            cnf.add_clause(diff_lits)
        solver = Solver(random_phase=0.2, seed=len(seen_pairs))
        solver.add_cnf(cnf)
        cnf.clauses.clear()
        for _ in range(PROBE_ROUNDS):
            if budget is not None and budget.expired:
                return
            if solver.solve(budget=budget) is not SolveStatus.SAT:
                break
            pattern = {
                name: int(solver.model_value(var))
                for name, var in x_vars.items()
            }
            yield pattern
            # Block this counterexample so the next round finds a new one.
            solver.add_clause(
                [
                    -var if pattern[name] else var
                    for name, var in x_vars.items()
                ]
            )
