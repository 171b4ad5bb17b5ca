"""Reference DPLL solver.

A deliberately simple, obviously-correct solver used as the test oracle
for the production CDCL solver (property tests compare the two on random
formulas). Unit propagation + chronological backtracking; exponential in
the worst case, intended for formulas with at most a few dozen variables.
"""

from __future__ import annotations

from repro.sat.cnf import Cnf


def dpll_solve(cnf: Cnf) -> dict[int, bool] | None:
    """Solve ``cnf``; return a total satisfying assignment or ``None``.

    The returned assignment covers every variable in ``1..cnf.num_vars``
    (unconstrained variables default to ``False``).
    """
    clauses = [list(c) for c in cnf.clauses]
    assignment: dict[int, bool] = {}
    result = _search(clauses, assignment, cnf.num_vars)
    if result is None:
        return None
    for v in range(1, cnf.num_vars + 1):
        result.setdefault(v, False)
    return result


def _simplify(
    clauses: list[list[int]], lit: int
) -> list[list[int]] | None:
    """Assign ``lit`` true: drop satisfied clauses, shrink the rest.

    Returns ``None`` when an empty clause (conflict) appears.
    """
    out: list[list[int]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = [l for l in clause if l != -lit]
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _search(
    clauses: list[list[int]],
    assignment: dict[int, bool],
    num_vars: int,
) -> dict[int, bool] | None:
    # Unit propagation to fixpoint.
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return None
    if not clauses:
        return dict(assignment)
    # Branch on the first literal of the first clause.
    branch_lit = clauses[0][0]
    for lit in (branch_lit, -branch_lit):
        reduced = _simplify(clauses, lit)
        if reduced is None:
            continue
        trial = dict(assignment)
        trial[abs(lit)] = lit > 0
        result = _search(reduced, trial, num_vars)
        if result is not None:
            return result
    return None


def count_models(cnf: Cnf, variables: list[int] | None = None) -> int:
    """Exhaustively count satisfying assignments over ``variables``.

    Only usable for small formulas; handy in tests of cardinality
    encodings (the model count over the input literals must equal the
    binomial coefficient).
    """
    if variables is None:
        variables = list(range(1, cnf.num_vars + 1))
    total = 0
    width = len(variables)
    for pattern in range(1 << width):
        assignment = {
            v: bool((pattern >> i) & 1) for i, v in enumerate(variables)
        }
        for v in range(1, cnf.num_vars + 1):
            assignment.setdefault(v, False)
        if _satisfies_projected(cnf, assignment, set(variables)):
            total += 1
    return total


def _satisfies_projected(
    cnf: Cnf, assignment: dict[int, bool], fixed: set[int]
) -> bool:
    """Is the formula satisfiable with ``fixed`` vars pinned as given?"""
    reduced = Cnf(cnf.num_vars)
    for clause in cnf.clauses:
        keep: list[int] = []
        satisfied = False
        for lit in clause:
            v = abs(lit)
            if v in fixed:
                if assignment[v] == (lit > 0):
                    satisfied = True
                    break
            else:
                keep.append(lit)
        if satisfied:
            continue
        if not keep:
            return False
        reduced.add_clause(keep)
    return dpll_solve(reduced) is not None
