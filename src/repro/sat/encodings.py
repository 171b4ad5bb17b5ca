"""Small reusable CNF encodings for gates and vector constraints.

These are the Tseitin-style building blocks shared by the circuit encoder
and the FALL functional analyses. Each ``encode_*`` helper allocates a
fresh output variable in the given :class:`~repro.sat.cnf.Cnf`, appends
the defining clauses and returns the output literal.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import EncodingError
from repro.sat.cardinality import encode_exactly
from repro.sat.cnf import Cnf


def encode_and(cnf: Cnf, lits: Sequence[int]) -> int:
    """Fresh ``out`` with ``out <-> AND(lits)``."""
    if not lits:
        raise EncodingError("AND of zero literals (use a constant instead)")
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([-out, lit])
    cnf.add_clause([out] + [-lit for lit in lits])
    return out


def encode_or(cnf: Cnf, lits: Sequence[int]) -> int:
    """Fresh ``out`` with ``out <-> OR(lits)``."""
    if not lits:
        raise EncodingError("OR of zero literals (use a constant instead)")
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([out, -lit])
    cnf.add_clause([-out] + list(lits))
    return out


def encode_xor(cnf: Cnf, a: int, b: int) -> int:
    """Fresh ``out`` with ``out <-> a XOR b``."""
    out = cnf.new_var()
    cnf.add_clause([-out, a, b])
    cnf.add_clause([-out, -a, -b])
    cnf.add_clause([out, -a, b])
    cnf.add_clause([out, a, -b])
    return out


def encode_xnor(cnf: Cnf, a: int, b: int) -> int:
    """Fresh ``out`` with ``out <-> (a == b)``."""
    return -encode_xor(cnf, a, b)


def encode_xor_many(cnf: Cnf, lits: Sequence[int]) -> int:
    """Fresh ``out`` with ``out <-> XOR(lits)`` via a linear chain."""
    if not lits:
        raise EncodingError("XOR of zero literals (use a constant instead)")
    acc = lits[0]
    for lit in lits[1:]:
        acc = encode_xor(cnf, acc, lit)
    return acc


def encode_ite(cnf: Cnf, cond: int, then_lit: int, else_lit: int) -> int:
    """Fresh ``out`` with ``out <-> (cond ? then_lit : else_lit)``."""
    out = cnf.new_var()
    cnf.add_clause([-cond, -then_lit, out])
    cnf.add_clause([-cond, then_lit, -out])
    cnf.add_clause([cond, -else_lit, out])
    cnf.add_clause([cond, else_lit, -out])
    return out


def assert_equal(cnf: Cnf, a: int, b: int) -> None:
    """Force ``a == b`` (two binary clauses, no fresh variable)."""
    cnf.add_clause([-a, b])
    cnf.add_clause([a, -b])


def assert_vector_equals_const(
    cnf: Cnf, lits: Sequence[int], bits: Sequence[int]
) -> None:
    """Pin each literal to the corresponding constant bit."""
    if len(lits) != len(bits):
        raise EncodingError(f"width mismatch: {len(lits)} lits vs {len(bits)} bits")
    for lit, bit in zip(lits, bits):
        cnf.add_clause([lit if bit else -lit])


def encode_equal_vectors(cnf: Cnf, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Fresh ``out`` with ``out <-> (xs == ys)`` bitwise."""
    if len(xs) != len(ys):
        raise EncodingError(f"width mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise EncodingError("equality of zero-width vectors")
    eq_bits = [encode_xnor(cnf, x, y) for x, y in zip(xs, ys)]
    return encode_and(cnf, eq_bits)


def encode_difference_bits(
    cnf: Cnf, xs: Sequence[int], ys: Sequence[int]
) -> list[int]:
    """Literals ``d_i <-> (x_i XOR y_i)``, one per position."""
    if len(xs) != len(ys):
        raise EncodingError(f"width mismatch: {len(xs)} vs {len(ys)}")
    return [encode_xor(cnf, x, y) for x, y in zip(xs, ys)]


def encode_hamming_distance_equals(
    cnf: Cnf,
    xs: Sequence[int],
    ys: Sequence[int],
    distance: int,
) -> list[int]:
    """Constrain ``HD(xs, ys) == distance``; return the difference bits.

    This is the ``HD(Supp(c), Supp(c')) = 2h`` constraint of Algorithms 2
    and 3 in the paper. The returned difference literals let callers add
    further constraints (e.g. the per-bit probes of Lemma 3).
    """
    if not 0 <= distance <= len(xs):
        raise EncodingError(
            f"Hamming distance {distance} impossible for width {len(xs)}"
        )
    diffs = encode_difference_bits(cnf, xs, ys)
    encode_exactly(cnf, diffs, distance)
    return diffs
