"""Key confirmation (paper §V, Algorithm 4).

The paper's second contribution: an extension of the SAT attack that
takes a predicate φ over the key inputs — typically "the key is one of
these shortlisted values" — and an I/O oracle, and returns a key
satisfying φ that is consistent with the oracle, or ⊥ if none exists.

It runs on the SAT attack's loop state (``repro.attacks.cegis._Cegis``),
whose two solvers are the formula sequences P_i and Q_i:

- ``P``, the key solver plus φ, produces candidate keys consistent with
  φ and the I/O patterns observed so far (P_1 = φ, P_{i+1} = P_i ∧
  C(Xd_i, K1, Yd_i));
- ``Q``, the two-copy miter (Q_1 = C(X, K1, Y1) ∧ C(X, K2, Y2) ∧ Y1 ≠
  Y2, Q_{i+1} = Q_i ∧ C(Xd_i, K1, Yd_i) ∧ C(Xd_i, K2, Yd_i)), produces
  distinguishing inputs for a *fixed* candidate key, solved under the
  assumption K1 = K_i (which already satisfies every observation).

P going UNSAT means φ was wrong (⊥); Q going UNSAT means no
distinguishing input remains and K_i is correct (Lemma 4). The split
tells the two UNSAT outcomes apart, and restricting the search to φ is
what makes the attack cheap even on SAT-attack-resilient circuits.
With φ = true it is the SAT attack itself, so this module always takes
a shortlist.

Implementation notes (how the measured Figure 6 behaviour is achieved):

1. **Probe mining.** The informative input patterns — those in a
   candidate key's error shell — occupy an exponentially small corner
   of the input space, and a CDCL model generator left to its own
   devices rarely lands there (the easy way to satisfy ``Y1 ≠ Y2`` is
   to mirror X into K2, one useless oracle query per iteration). Before
   the loop we therefore mine counterexamples between pairs of keys —
   shortlist pairs plus single-bit perturbations of each candidate —
   by solving a copy of Q's miter under K1 = a, K2 = b, and query the
   oracle exactly there. Each probe refutes at least one key of its pair (or tests the
   candidate's own shell, for the perturbation pairs) and adds shell
   constraints that collapse Q's K2 space.

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

from collections.abc import Iterable, Sequence
from itertools import combinations

from repro.attacks.base import TelemetryRecorder
from repro.attacks.cegis import _Cegis, _outputs_differ
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.solver import SolveStatus
from repro.utils.timer import Budget

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
    key_lits = [key_vars[name] for name in key_names]
    selectors = []
    for candidate in candidates:
        if len(candidate) != len(key_names):
            raise AttackError(
                f"candidate width {len(candidate)} != key width {len(key_names)}"
            )
        selector = cnf.new_var()
        selectors.append(selector)
        for lit in _assign(key_lits, candidate):
            cnf.add_clause([-selector, lit])
    cnf.add_clause(selectors if guard is None else [-guard] + selectors)


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
    def new_cegis(label: str, telemetry: TelemetryRecorder | None) -> _Cegis:
        return _Cegis(
            label, locked, oracle, copies=2, miter=_outputs_differ,
            random_phase=0.2, budget=budget, max_iterations=max_iterations,
            telemetry=telemetry,
        )

    cegis = new_cegis("key-confirmation", telemetry)
    shortlist = tuple(tuple(candidate) for candidate in candidates)
    key_names, solver = cegis.key_names, cegis.solver
    # φ on P, and on Q's second copy behind the tier-1 guard.
    encode_key_shortlist(cegis.key_cnf, cegis.key_vars, key_names, shortlist)
    phi_guard = cegis.cnf.new_var()
    encode_key_shortlist(
        cegis.cnf, cegis.key_sets[1], key_names, shortlist, guard=phi_guard
    )
    cegis.load()
    iteration = 0

    def result(status, key=None, verification=None) -> AttackResult:
        outcome = cegis.result(
            status,
            key=key,
            iterations=iteration,
            verification=verification,
            # A φ-relative key is correct only if φ holds a correct key,
            # which the attack cannot know: a netlist may have several.
            approximate=verification == "phi-relative",
        )
        outcome.candidates = shortlist
        return outcome

    # Probe mining (module docstring note 1). Mining is independent of
    # the observations, so all probes are collected first and replayed
    # against the oracle as one batched wide simulation. It runs on a
    # second instance of the miter: left in Q, the activity scores and
    # learnt clauses of its fixed-key searches cost the loop 9% more
    # propagations over Figure 6's cells.
    with cegis.telemetry.stage("probe_mining"):
        probes = _mine_probes(new_cegis("probe-mining", None), shortlist)
        for pattern, observed in zip(probes, oracle.query_batch(probes)):
            cegis.observe(pattern, observed)
        cegis.telemetry.count("probes", len(probes))

    certification_dis = 0
    while True:
        if cegis.stopped(iteration):
            return result(AttackStatus.TIMEOUT)
        status, candidate = cegis.extract_key()
        if candidate is None:
            # FAILED is ⊥: no key satisfying φ is consistent with the oracle.
            return result(status)
        k1_assumptions = _assign(cegis.key_sets[0].values(), candidate)

        # Tier 1: distinguish the candidate from other φ members.
        q_status = solver.solve(
            assumptions=k1_assumptions + [phi_guard], budget=budget
        )
        if q_status is SolveStatus.UNKNOWN:
            return result(AttackStatus.TIMEOUT)
        if q_status is SolveStatus.SAT:
            iteration += 1
            cegis.query_model(iteration, tier=1)
            continue
        # UNSAT: no φ rival distinguishes itself from the candidate.

        # Tier 2: attempt the unrestricted Lemma 4 certificate.
        q_status = solver.solve(
            assumptions=k1_assumptions,
            budget=budget,
            conflict_limit=CERTIFY_CONFLICTS,
        )
        if q_status is SolveStatus.UNSAT:
            return result(AttackStatus.SUCCESS, candidate, "exact")
        if q_status is SolveStatus.UNKNOWN:
            # Bounded certification exhausted: the candidate is the
            # unique φ member consistent with all observations.
            return result(AttackStatus.SUCCESS, candidate, "phi-relative")
        # SAT: a global distinguishing input exists — query it (it may
        # even refute the candidate), but bound how long we chase the
        # exponential tail of point-corruption schemes.
        iteration += 1
        cegis.query_model(iteration, tier=2)
        certification_dis += 1
        if certification_dis >= _CERTIFY_MAX_DIS:
            # Accept the candidate if P still produces it.
            if cegis.extract_key()[1] == candidate:
                return result(AttackStatus.SUCCESS, candidate, "phi-relative")
            certification_dis = 0


def _assign(variables: Iterable[int], bits: Iterable[int]) -> list[int]:
    """The literals setting ``variables`` to ``bits``."""
    return [var if bit else -var for var, bit in zip(variables, bits)]


def _mine_probes(miner: _Cegis, keys: Sequence[KeyVector]) -> list[dict[str, int]]:
    """Inputs on which pairs of keyed circuits provably differ.

    Pairs are (a) the shortlist pairs (all of them for small shortlists,
    a covering chain for large ones) and (b) single-bit perturbations of
    each candidate — the latter make the probes explore each candidate's
    *own* error shell, which is what refutes a wrong singleton guess and
    pins Q's K2 space around a correct one.

    Each pair solves ``miner``'s miter under K1 = a, K2 = b, up to
    :data:`PROBE_ROUNDS` times; each counterexample is blocked behind a
    per-pair guard, which a root unit retires once the pair is done.
    """
    chain = zip(keys, keys[1:] + keys[:1])
    pairs = list(combinations(keys, 2) if len(keys) <= 6 else chain)
    for key in keys:
        for position in {0, len(key) // 2}:
            flipped = key[:position] + (1 - key[position],) + key[position + 1 :]
            pairs.append((key, flipped))

    solver, cnf, budget = miner.solver, miner.cnf, miner.budget
    x_vars = list(miner.x_vars.values())
    k1_vars, k2_vars = (list(key_vars.values()) for key_vars in miner.key_sets)
    probes: list[dict[str, int]] = []
    seen_pairs: set[frozenset[KeyVector]] = set()
    for key_a, key_b in pairs:
        pair = frozenset((key_a, key_b))
        if len(pair) < 2 or pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        guard = cnf.new_var()
        miner.load()
        assumptions = [guard] + _assign(k1_vars, key_a) + _assign(k2_vars, key_b)
        for _ in range(PROBE_ROUNDS):
            if budget is not None and budget.expired:
                return probes
            status = solver.solve(assumptions=assumptions, budget=budget)
            if status is not SolveStatus.SAT:
                break
            pattern = miner.model_input()
            probes.append(pattern)
            # Block this counterexample so the next round finds a new one.
            solver.add_clause(
                [-guard] + [-lit for lit in _assign(x_vars, pattern.values())]
            )
        solver.add_clause([-guard])
    return probes
