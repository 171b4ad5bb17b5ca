"""Tests for the gate-level CNF encodings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.sat.cnf import Cnf
from repro.sat.encodings import (
    assert_equal,
    encode_and,
    encode_difference_bits,
    encode_equal_vectors,
    encode_hamming_distance_equals,
    encode_or,
    encode_xnor,
    encode_xor,
)
from repro.sat.solver import Solver, SolveStatus


def _truth_table(cnf: Cnf, inputs: list[int], out: int) -> list[bool]:
    """Evaluate `out` over all input patterns via assumptions."""
    table = []
    for pattern in range(1 << len(inputs)):
        assumptions = [
            v if (pattern >> i) & 1 else -v for i, v in enumerate(inputs)
        ]
        solver = Solver()
        solver.add_cnf(cnf)
        status = solver.solve(assumptions=assumptions)
        assert status is SolveStatus.SAT
        var = out if out > 0 else -out
        value = solver.model_value(var)
        table.append(value if out > 0 else not value)
    return table


class TestAnd:
    def test_two_input(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = encode_and(cnf, [a, b])
        assert _truth_table(cnf, [a, b], out) == [False, False, False, True]

    def test_three_input(self):
        cnf = Cnf()
        xs = cnf.new_vars(3)
        out = encode_and(cnf, xs)
        table = _truth_table(cnf, xs, out)
        assert table == [False] * 7 + [True]

    def test_single_literal_passthrough(self):
        cnf = Cnf()
        a = cnf.new_var()
        assert encode_and(cnf, [a]) == a
        assert cnf.num_clauses == 0

    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            encode_and(Cnf(), [])

    def test_negated_inputs(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = encode_and(cnf, [-a, -b])  # NOR
        assert _truth_table(cnf, [a, b], out) == [True, False, False, False]


class TestOr:
    def test_two_input(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = encode_or(cnf, [a, b])
        assert _truth_table(cnf, [a, b], out) == [False, True, True, True]

    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            encode_or(Cnf(), [])


class TestXor:
    def test_xor(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = encode_xor(cnf, a, b)
        assert _truth_table(cnf, [a, b], out) == [False, True, True, False]

    def test_xnor(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = encode_xnor(cnf, a, b)
        assert _truth_table(cnf, [a, b], out) == [True, False, False, True]


class TestVectorHelpers:
    def test_assert_equal(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        assert_equal(cnf, a, b)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[a, -b]) is SolveStatus.UNSAT
        assert solver.solve(assumptions=[a, b]) is SolveStatus.SAT

    def test_equal_vectors(self):
        cnf = Cnf()
        xs = cnf.new_vars(2)
        ys = cnf.new_vars(2)
        out = encode_equal_vectors(cnf, xs, ys)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[xs[0], -xs[1], ys[0], -ys[1], out]) is SolveStatus.SAT
        assert solver.solve(assumptions=[xs[0], -ys[0], out]) is SolveStatus.UNSAT

    def test_equal_vectors_width_mismatch(self):
        cnf = Cnf()
        with pytest.raises(EncodingError):
            encode_equal_vectors(cnf, cnf.new_vars(2), cnf.new_vars(3))

    def test_difference_bits(self):
        cnf = Cnf()
        xs = cnf.new_vars(2)
        ys = cnf.new_vars(2)
        diffs = encode_difference_bits(cnf, xs, ys)
        solver = Solver()
        solver.add_cnf(cnf)
        assert (
            solver.solve(assumptions=[xs[0], -ys[0], -xs[1], -ys[1]])
            is SolveStatus.SAT
        )
        assert solver.model_value(diffs[0]) is True
        assert solver.model_value(diffs[1]) is False


class TestHammingDistance:
    @pytest.mark.parametrize("width,distance", [(3, 0), (3, 2), (4, 2), (5, 4)])
    def test_distance_is_enforced(self, width, distance):
        cnf = Cnf()
        xs = cnf.new_vars(width)
        ys = cnf.new_vars(width)
        encode_hamming_distance_equals(cnf, xs, ys, distance)
        solver = Solver()
        solver.add_cnf(cnf)
        # Enumerate a handful of x patterns; count valid y per x.
        for pattern in range(1 << width):
            assumptions = [
                v if (pattern >> i) & 1 else -v for i, v in enumerate(xs)
            ]
            matching = 0
            for y_pattern in range(1 << width):
                y_assumptions = [
                    v if (y_pattern >> i) & 1 else -v for i, v in enumerate(ys)
                ]
                status = solver.solve(assumptions=assumptions + y_assumptions)
                if status is SolveStatus.SAT:
                    matching += 1
            from math import comb

            assert matching == comb(width, distance)

    def test_impossible_distance_rejected(self):
        cnf = Cnf()
        xs = cnf.new_vars(2)
        ys = cnf.new_vars(2)
        with pytest.raises(EncodingError):
            encode_hamming_distance_equals(cnf, xs, ys, 3)


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=4),
    x_pattern=st.integers(min_value=0, max_value=15),
    y_pattern=st.integers(min_value=0, max_value=15),
)
def test_hd_constraint_matches_popcount(width, x_pattern, y_pattern):
    x_pattern &= (1 << width) - 1
    y_pattern &= (1 << width) - 1
    true_distance = bin(x_pattern ^ y_pattern).count("1")
    cnf = Cnf()
    xs = cnf.new_vars(width)
    ys = cnf.new_vars(width)
    encode_hamming_distance_equals(cnf, xs, ys, true_distance)
    assumptions = [v if (x_pattern >> i) & 1 else -v for i, v in enumerate(xs)]
    assumptions += [v if (y_pattern >> i) & 1 else -v for i, v in enumerate(ys)]
    solver = Solver()
    solver.add_cnf(cnf)
    assert solver.solve(assumptions=assumptions) is SolveStatus.SAT
