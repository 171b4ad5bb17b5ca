"""Cardinality constraint encodings.

The SlidingWindow and Distance2H analyses (paper Algorithms 2 and 3) both
constrain ``HD(X, X') = 2h``, i.e. *exactly-k* over the XOR difference
bits. The paper's prototype uses an adder-based encoding; we use Sinz's
sequential counter (O(n*k) clauses, arc consistent).

All encoders take a :class:`~repro.sat.cnf.Cnf` (for fresh variables) and
a list of external literals, and append clauses enforcing the constraint.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.sat.cnf import Cnf


def encode_at_most(cnf: Cnf, lits: list[int], bound: int) -> None:
    """Append clauses enforcing ``sum(lits) <= bound``."""
    n = len(lits)
    if bound < 0:
        raise EncodingError(f"at-most bound must be >= 0, got {bound}")
    if bound >= n:
        return  # trivially true
    if bound == 0:
        for lit in lits:
            cnf.add_clause([-lit])
        return
    _at_most_sequential(cnf, lits, bound)


def encode_at_least(cnf: Cnf, lits: list[int], bound: int) -> None:
    """Append clauses enforcing ``sum(lits) >= bound``."""
    n = len(lits)
    if bound <= 0:
        return  # trivially true
    if bound > n:
        raise EncodingError(f"at-least {bound} over {n} literals is unsatisfiable")
    if bound == n:
        for lit in lits:
            cnf.add_clause([lit])
        return
    # at-least-k(lits) == at-most-(n-k)(negated lits)
    encode_at_most(cnf, [-l for l in lits], n - bound)


def encode_exactly(cnf: Cnf, lits: list[int], bound: int) -> None:
    """Append clauses enforcing ``sum(lits) == bound``."""
    if not 0 <= bound <= len(lits):
        raise EncodingError(
            f"exactly-{bound} over {len(lits)} literals is unsatisfiable"
        )
    encode_at_most(cnf, lits, bound)
    encode_at_least(cnf, lits, bound)


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
