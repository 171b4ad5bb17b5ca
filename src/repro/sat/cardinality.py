"""Cardinality constraint encodings.

The SlidingWindow and Distance2H analyses (paper Algorithms 2 and 3) both
constrain ``HD(X, X') = 2h``, i.e. *exactly-k* over the XOR difference
bits. The paper's prototype uses an adder-based encoding; we provide three
interchangeable encodings so the ablation benchmark
(``benchmarks/bench_ablation_cardinality.py``) can compare them:

- ``seq``: Sinz's sequential counter (default; O(n*k) clauses, arc
  consistent),
- ``totalizer``: Bailleux-Boufkhad totalizer (unary counting tree),
- ``pairwise``: naive binomial encoding (only sensible for tiny n/k; used
  as a correctness oracle in tests).

All encoders take a :class:`~repro.sat.cnf.Cnf` (for fresh variables) and
a list of external literals, and append clauses enforcing the constraint.
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import EncodingError
from repro.sat.cnf import Cnf

CARDINALITY_METHODS = ("seq", "totalizer", "pairwise")


def encode_at_most(cnf: Cnf, lits: list[int], bound: int, method: str = "seq") -> None:
    """Append clauses enforcing ``sum(lits) <= bound``."""
    _check_method(method)
    n = len(lits)
    if bound < 0:
        raise EncodingError(f"at-most bound must be >= 0, got {bound}")
    if bound >= n:
        return  # trivially true
    if bound == 0:
        for lit in lits:
            cnf.add_clause([-lit])
        return
    if method == "pairwise":
        _at_most_pairwise(cnf, lits, bound)
    elif method == "seq":
        _at_most_sequential(cnf, lits, bound)
    else:
        outputs = _totalizer_outputs(cnf, lits)
        # outputs[i] true <=> at least i+1 inputs true; forbid bound+1.
        cnf.add_clause([-outputs[bound]])


def encode_at_least(cnf: Cnf, lits: list[int], bound: int, method: str = "seq") -> None:
    """Append clauses enforcing ``sum(lits) >= bound``."""
    _check_method(method)
    n = len(lits)
    if bound <= 0:
        return  # trivially true
    if bound > n:
        raise EncodingError(f"at-least {bound} over {n} literals is unsatisfiable")
    if bound == n:
        for lit in lits:
            cnf.add_clause([lit])
        return
    if method == "totalizer":
        outputs = _totalizer_outputs(cnf, lits)
        cnf.add_clause([outputs[bound - 1]])
    else:
        # at-least-k(lits) == at-most-(n-k)(negated lits)
        encode_at_most(cnf, [-l for l in lits], n - bound, method)


def encode_exactly(cnf: Cnf, lits: list[int], bound: int, method: str = "seq") -> None:
    """Append clauses enforcing ``sum(lits) == bound``."""
    _check_method(method)
    if not 0 <= bound <= len(lits):
        raise EncodingError(
            f"exactly-{bound} over {len(lits)} literals is unsatisfiable"
        )
    if method == "totalizer":
        outputs = _totalizer_outputs(cnf, lits)
        if bound > 0:
            cnf.add_clause([outputs[bound - 1]])
        if bound < len(lits):
            cnf.add_clause([-outputs[bound]])
        return
    encode_at_most(cnf, lits, bound, method)
    encode_at_least(cnf, lits, bound, method)


def _check_method(method: str) -> None:
    if method not in CARDINALITY_METHODS:
        raise EncodingError(
            f"unknown cardinality method {method!r}; "
            f"choose one of {CARDINALITY_METHODS}"
        )


# ----------------------------------------------------------------------
# Pairwise (binomial) encoding
# ----------------------------------------------------------------------
def _at_most_pairwise(cnf: Cnf, lits: list[int], bound: int) -> None:
    """Forbid every (bound+1)-subset from being simultaneously true."""
    for subset in combinations(lits, bound + 1):
        cnf.add_clause([-lit for lit in subset])


# ----------------------------------------------------------------------
# Sequential counter (Sinz 2005)
# ----------------------------------------------------------------------
def _at_most_sequential(cnf: Cnf, lits: list[int], bound: int) -> None:
    """Sinz's LTn,k encoding: registers s[i][j] = "at least j+1 of the
    first i+1 literals are true"."""
    n = len(lits)
    # s[i][j] for i in 0..n-1, j in 0..bound-1
    s = [[cnf.new_var() for _ in range(bound)] for _ in range(n)]
    cnf.add_clause([-lits[0], s[0][0]])
    for j in range(1, bound):
        cnf.add_clause([-s[0][j]])
    for i in range(1, n):
        cnf.add_clause([-lits[i], s[i][0]])
        cnf.add_clause([-s[i - 1][0], s[i][0]])
        for j in range(1, bound):
            cnf.add_clause([-lits[i], -s[i - 1][j - 1], s[i][j]])
            cnf.add_clause([-s[i - 1][j], s[i][j]])
        cnf.add_clause([-lits[i], -s[i - 1][bound - 1]])
    # Note: the final clause above (for each i >= 1) enforces the bound;
    # literal n-1's overflow is covered by the loop's last iteration.


# ----------------------------------------------------------------------
# Totalizer (Bailleux & Boufkhad 2003)
# ----------------------------------------------------------------------
def _totalizer_outputs(cnf: Cnf, lits: list[int]) -> list[int]:
    """Build a totalizer tree; return unary output literals.

    ``outputs[i]`` is true iff at least ``i+1`` of ``lits`` are true.
    Both directions of the counting semantics are encoded so the outputs
    can be constrained from either side.
    """
    if not lits:
        return []
    if len(lits) == 1:
        return [lits[0]]
    mid = len(lits) // 2
    left = _totalizer_outputs(cnf, lits[:mid])
    right = _totalizer_outputs(cnf, lits[mid:])
    total = len(left) + len(right)
    outputs = [cnf.new_var() for _ in range(total)]
    # Padded views: index 0 is the constant "true" sentinel (None).
    for alpha in range(len(left) + 1):
        for beta in range(len(right) + 1):
            sigma = alpha + beta
            # (left >= alpha) and (right >= beta)  =>  out >= sigma
            if sigma > 0:
                clause = [outputs[sigma - 1]]
                if alpha > 0:
                    clause.append(-left[alpha - 1])
                if beta > 0:
                    clause.append(-right[beta - 1])
                cnf.add_clause(clause)
            # (left <= alpha) and (right <= beta)  =>  out <= sigma
            if sigma < total:
                clause = [-outputs[sigma]]
                if alpha < len(left):
                    clause.append(left[alpha])
                if beta < len(right):
                    clause.append(right[beta])
                cnf.add_clause(clause)
    return outputs
