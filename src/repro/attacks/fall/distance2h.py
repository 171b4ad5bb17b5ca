"""Distance2H (paper §IV-B3, Algorithm 3, Lemma 2).

Applicable when 4h ≤ m. Like SlidingWindow, the first model of
``F = c(X) ∧ c(X') ∧ HD(X, X') = 2h`` pins the m − 2h agreeing
positions to key bits (Lemma 2). Instead of per-bit probes, one more
query ``G = F ∧ (x_i = x'_i for every previously disagreeing i)``
forces the 2h remaining positions to agree in a *second* pair of
satisfying assignments — which, again by Lemma 2, pins them too. Two
SAT queries total, which is why Distance2H dominates the Figure 5
cactus plots at small h.
"""

from __future__ import annotations

from repro.attacks.fall.sliding_window import formula_f
from repro.circuit.circuit import Circuit
from repro.errors import AttackError
from repro.sat.solver import SolveStatus
from repro.utils.timer import Budget


def distance_2h(
    cone: Circuit,
    h: int,
    budget: Budget | None = None,
) -> dict[str, int] | None:
    """Recover the protected cube with two HD-2h SAT queries.

    Returns {input name: cube bit}, ``None`` for ⊥ or timeout. Requires
    4h ≤ m (the second query needs 2h fresh disagreeing positions among
    the m − 2h previously agreeing ones).
    """
    if len(cone.outputs) != 1:
        raise AttackError("distance_2h expects a single-output cone")
    inputs = list(cone.inputs)
    m = len(inputs)
    if h < 0 or 4 * h > m:
        return None

    solver, a_vars, b_vars = formula_f(cone, h)

    status = solver.solve(budget=budget)
    if status is not SolveStatus.SAT:
        return None
    model_f = {
        n: (int(solver.model_value(a_vars[n])), int(solver.model_value(b_vars[n])))
        for n in inputs
    }
    keys_a = {n: ma for n, (ma, mb) in model_f.items() if ma == mb}
    disagreeing = [n for n, (ma, mb) in model_f.items() if ma != mb]

    # G = F ∧ (x_i = x'_i) for the previously disagreeing positions.
    for name in disagreeing:
        solver.add_clause([-a_vars[name], b_vars[name]])
        solver.add_clause([a_vars[name], -b_vars[name]])
    status = solver.solve(budget=budget)
    if status is not SolveStatus.SAT:
        return None
    keys_b = {}
    for name in inputs:
        ma = int(solver.model_value(a_vars[name]))
        mb = int(solver.model_value(b_vars[name]))
        if ma == mb:
            keys_b[name] = ma

    # keysA ∪ keysB must be consistent and cover all positions.
    merged = dict(keys_a)
    for name, bit in keys_b.items():
        if name in merged and merged[name] != bit:
            return None  # contradiction: not a stripping function
        merged[name] = bit
    if len(merged) != m:
        return None
    return merged
