"""SlidingWindow (paper §IV-B2, Algorithm 2, Lemmas 2 and 3).

Attacks SFLL-HDh for h < ⌊m/2⌋. The formula F instantiates the
candidate cone twice with ``HD(X, X') = 2h`` and both copies asserted 1.
For a genuine stripping function:

- positions where the two satisfying assignments agree carry the key
  bits directly (Lemma 2, non-overlapping errors);
- each remaining position is resolved by the Lemma 3 probe
  ``F ∧ (x_j = x'_j = b)``, satisfiable iff b = k_j.

Any inconsistency with the lemmas refutes the candidate (⊥).
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_hamming_distance_equals
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget


def formula_f(
    cone: Circuit, h: int
) -> tuple[Solver, dict[str, int], dict[str, int]]:
    """A solver loaded with F = c(X) ∧ c(X') ∧ HD(X, X') = 2h.

    Returns the solver and the variables of X and X' by input name.
    Distance2H starts from the same formula.
    """
    output = cone.outputs[0]
    inputs = cone.inputs
    cnf = Cnf()
    a_vars = {name: cnf.new_var() for name in inputs}
    b_vars = {name: cnf.new_var() for name in inputs}
    enc_a = encode_circuit(cone, cnf, shared_vars=a_vars)
    enc_b = encode_circuit(cone, cnf, shared_vars=b_vars)
    cnf.add_clause([enc_a.lit(output)])   # strip(X) = 1
    cnf.add_clause([enc_b.lit(output)])   # strip(X') = 1
    encode_hamming_distance_equals(
        cnf,
        [a_vars[n] for n in inputs],
        [b_vars[n] for n in inputs],
        2 * h,
    )
    solver = Solver()
    solver.add_cnf(cnf)
    cnf.clauses.clear()
    return solver, a_vars, b_vars


def sliding_window(
    cone: Circuit,
    h: int,
    budget: Budget | None = None,
) -> dict[str, int] | None:
    """Recover the protected cube from an SFLL-HDh candidate node.

    Returns {input name: cube bit}, or ``None`` for ⊥/timeouts (callers
    check ``budget.expired`` to distinguish). Applicability: 2h must not
    exceed the support size, otherwise F is trivially unsatisfiable.
    """
    if len(cone.outputs) != 1:
        raise AttackError("sliding_window expects a single-output cone")
    inputs = list(cone.inputs)
    m = len(inputs)
    if h < 0 or 2 * h > m:
        return None

    solver, a_vars, b_vars = formula_f(cone, h)

    status = solver.solve(budget=budget)
    if status is not SolveStatus.SAT:
        return None  # UNSAT: ⊥; UNKNOWN: timeout
    model_a = {n: int(solver.model_value(a_vars[n])) for n in inputs}
    model_b = {n: int(solver.model_value(b_vars[n])) for n in inputs}

    keys: dict[str, int] = {}
    for name in inputs:
        if model_a[name] == model_b[name]:
            keys[name] = model_a[name]  # Lemma 2
            continue
        results = {}
        for bit in (model_a[name], model_b[name]):
            assumptions = [
                a_vars[name] if bit else -a_vars[name],
                b_vars[name] if bit else -b_vars[name],
            ]
            probe = solver.solve(assumptions=assumptions, budget=budget)
            if probe is SolveStatus.UNKNOWN:
                return None
            results[bit] = probe
        sat_bits = [b for b, r in results.items() if r is SolveStatus.SAT]
        if len(sat_bits) != 1:
            return None  # inconsistent with Lemma 3: ⊥
        keys[name] = sat_bits[0]
    return keys
