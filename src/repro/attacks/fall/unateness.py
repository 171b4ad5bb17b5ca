"""AnalyzeUnateness (paper §IV-B1, Algorithm 1, Lemma 1).

The TTLock/SFLL-HD0 stripping function is a single cube, and a cube is
unate in every variable: positive unate in x_i iff k_i = 1, negative
unate iff k_i = 0 (Lemma 1). The algorithm checks unateness of the
candidate node in each support variable with two SAT queries and reads
the protected cube off the polarities; any non-unate variable refutes
the candidate (⊥).

Implementation: the cone is encoded twice with per-variable equality
selectors, so all ``2m`` cofactor queries run as assumption-only solves
on one incremental solver.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget


def analyze_unateness(
    cone: Circuit, budget: Budget | None = None
) -> dict[str, int] | None:
    """Recover the protected cube from a unate candidate node.

    ``cone`` is a single-output circuit (the candidate's fanin cone).
    Returns {input name: cube bit} or ``None`` (the paper's ⊥) when the
    function is not unate in some variable. Raises nothing on timeout;
    an exhausted budget surfaces as ``None`` with ``budget.expired`` set
    (callers distinguish timeout from refutation by checking the budget).
    """
    if len(cone.outputs) != 1:
        raise AttackError("analyze_unateness expects a single-output cone")
    output = cone.outputs[0]
    inputs = list(cone.inputs)

    cnf = Cnf()
    a_vars = {name: cnf.new_var() for name in inputs}
    b_vars = {name: cnf.new_var() for name in inputs}
    enc_a = encode_circuit(cone, cnf, shared_vars=a_vars)
    enc_b = encode_circuit(cone, cnf, shared_vars=b_vars)
    f_a = enc_a.lit(output)
    f_b = enc_b.lit(output)
    # Equality selectors: s_i forces a_i == b_i.
    selectors = {}
    for name in inputs:
        s = cnf.new_var()
        cnf.add_clause([-s, -a_vars[name], b_vars[name]])
        cnf.add_clause([-s, a_vars[name], -b_vars[name]])
        selectors[name] = s
    solver = Solver()
    solver.add_cnf(cnf)
    cnf.clauses.clear()

    keys: dict[str, int] = {}
    for pivot in inputs:
        shared = [selectors[name] for name in inputs if name != pivot]
        # Violation of positive unateness: f(x_i=0)=1 ∧ f(x_i=1)=0.
        pos_violation = shared + [-a_vars[pivot], b_vars[pivot], f_a, -f_b]
        status = solver.solve(assumptions=pos_violation, budget=budget)
        if status is SolveStatus.UNKNOWN:
            return None
        if status is SolveStatus.UNSAT:
            keys[pivot] = 1  # positive unate => k_i = 1 (Lemma 1)
            continue
        # Violation of negative unateness: f(x_i=0)=0 ∧ f(x_i=1)=1.
        neg_violation = shared + [-a_vars[pivot], b_vars[pivot], -f_a, f_b]
        status = solver.solve(assumptions=neg_violation, budget=budget)
        if status is SolveStatus.UNKNOWN:
            return None
        if status is SolveStatus.UNSAT:
            keys[pivot] = 0  # negative unate => k_i = 0 (Lemma 1)
            continue
        return None  # not unate in this variable: ⊥
    return keys
