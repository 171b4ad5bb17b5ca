"""Tests for the sequential-counter cardinality encodings.

Every model count is checked against the binomial reference ``math.comb``.
"""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.sat.cardinality import (
    encode_at_least,
    encode_at_most,
    encode_exactly,
)
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus


def _count_projected_models(cnf: Cnf, input_vars: list[int]) -> int:
    """Count assignments to input_vars extendable to full models."""
    count = 0
    for pattern in range(1 << len(input_vars)):
        assumptions = [
            v if (pattern >> i) & 1 else -v for i, v in enumerate(input_vars)
        ]
        solver = Solver()
        solver.add_cnf(cnf)
        if solver.solve(assumptions=assumptions) is SolveStatus.SAT:
            count += 1
    return count


class TestExactly:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (3, 0), (3, 2), (4, 2), (5, 3), (6, 1)])
    def test_model_count_is_binomial(self, n, k):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(n)]
        encode_exactly(cnf, xs, k)
        assert _count_projected_models(cnf, xs) == comb(n, k)

    def test_exact_zero_forces_all_false(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(4)]
        encode_exactly(cnf, xs, 0)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.SAT
        assert not any(solver.model_value(x) for x in xs)

    def test_exact_n_forces_all_true(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(4)]
        encode_exactly(cnf, xs, 4)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.SAT
        assert all(solver.model_value(x) for x in xs)

    def test_negated_literals_supported(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(3)]
        encode_exactly(cnf, [-x for x in xs], 2)
        # exactly two of the vars FALSE <=> exactly one TRUE
        assert _count_projected_models(cnf, xs) == comb(3, 1)

    def test_out_of_range_bound_rejected(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(3)]
        with pytest.raises(EncodingError):
            encode_exactly(cnf, xs, 4)
        with pytest.raises(EncodingError):
            encode_exactly(cnf, xs, -1)


class TestAtMost:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 0), (5, 4)])
    def test_model_count(self, n, k):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(n)]
        encode_at_most(cnf, xs, k)
        expected = sum(comb(n, i) for i in range(k + 1))
        assert _count_projected_models(cnf, xs) == expected

    def test_trivial_bound_adds_nothing(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(3)]
        encode_at_most(cnf, xs, 3)
        assert _count_projected_models(cnf, xs) == 8

    def test_violating_assignment_unsat(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(4)]
        encode_at_most(cnf, xs, 2)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=xs[:3]) is SolveStatus.UNSAT

    def test_negative_bound_rejected(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(2)]
        with pytest.raises(EncodingError):
            encode_at_most(cnf, xs, -1)


class TestAtLeast:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 3), (5, 5)])
    def test_model_count(self, n, k):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(n)]
        encode_at_least(cnf, xs, k)
        expected = sum(comb(n, i) for i in range(k, n + 1))
        assert _count_projected_models(cnf, xs) == expected

    def test_zero_bound_adds_nothing(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(3)]
        encode_at_least(cnf, xs, 0)
        assert len(cnf.clauses) == 0

    def test_impossible_bound_rejected(self):
        cnf = Cnf()
        xs = [cnf.new_var() for _ in range(2)]
        with pytest.raises(EncodingError):
            encode_at_least(cnf, xs, 3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_exactly_matches_binomial(n, data):
    """Exactly-k accepts C(n, k) input-variable models for any n and k."""
    k = data.draw(st.integers(min_value=0, max_value=n))
    cnf = Cnf()
    xs = [cnf.new_var() for _ in range(n)]
    encode_exactly(cnf, xs, k)
    assert _count_projected_models(cnf, xs) == comb(n, k)


def test_large_sequential_counter_is_compact():
    """The encoding stays near O(n*k) clauses, far below the binomial one."""
    cnf = Cnf()
    xs = [cnf.new_var() for _ in range(40)]
    encode_at_most(cnf, xs, 5)
    assert len(cnf.clauses) < comb(40, 6) / 100
