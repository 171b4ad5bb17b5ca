"""Tests for the DPLL reference solver and literal conventions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import SolverError
from repro.sat.cnf import Cnf
from repro.sat.literals import check_literal, to_internal

from tests.conftest import cnf_strategy
from tests.sat.dpll import count_models, dpll_solve


class TestDpll:
    def test_empty_formula_sat(self):
        assert dpll_solve(Cnf()) == {}

    def test_unit_propagation(self):
        cnf = Cnf()
        cnf.add_clause([1])
        cnf.add_clause([-1, 2])
        model = dpll_solve(cnf)
        assert model == {1: True, 2: True}

    def test_unsat(self):
        cnf = Cnf()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert dpll_solve(cnf) is None

    def test_model_covers_unconstrained_vars(self):
        cnf = Cnf(num_vars=5)
        cnf.add_clause([1])
        model = dpll_solve(cnf)
        assert set(model) == {1, 2, 3, 4, 5}

    def test_backtracking_needed(self):
        # (a | b) & (!a | b) & (a | !b) forces a = b = true.
        cnf = Cnf()
        for clause in ([1, 2], [-1, 2], [1, -2]):
            cnf.add_clause(clause)
        model = dpll_solve(cnf)
        assert model[1] and model[2]

    def test_returned_model_satisfies(self):
        cnf = Cnf()
        for clause in ([1, -2, 3], [-1, 2], [-3, -1], [2, 3]):
            cnf.add_clause(clause)
        model = dpll_solve(cnf)
        assert model is not None
        assert cnf.evaluate(model)


class TestCountModels:
    def test_unconstrained(self):
        cnf = Cnf(num_vars=3)
        assert count_models(cnf) == 8

    def test_single_clause(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        assert count_models(cnf) == 3

    def test_projected_counting(self):
        # y <-> (a AND b): over {a, b} all 4 assignments extend.
        cnf = Cnf()
        a, b, y = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_clause([-y, a])
        cnf.add_clause([-y, b])
        cnf.add_clause([y, -a, -b])
        assert count_models(cnf, [a, b]) == 4
        assert count_models(cnf, [a, b, y]) == 4


class TestLiterals:
    def test_check_literal_accepts_ints(self):
        assert check_literal(3) == 3
        assert check_literal(-7) == -7

    @pytest.mark.parametrize("bad", [0, True, False, 1.5, "x", None])
    def test_check_literal_rejects(self, bad):
        with pytest.raises(SolverError):
            check_literal(bad)

    @pytest.mark.parametrize("lit", [1, -1, 7, -7, 100, -100])
    def test_internal_roundtrip(self, lit):
        ilit = to_internal(lit)
        var = ilit >> 1
        assert (-var if ilit & 1 else var) == lit

    def test_internal_negation_is_xor(self):
        assert to_internal(-3) == to_internal(3) ^ 1


@settings(max_examples=80, deadline=None)
@given(cnf=cnf_strategy(max_vars=6, max_clauses=14))
def test_dpll_model_always_satisfies(cnf):
    model = dpll_solve(cnf)
    if model is not None:
        assert cnf.evaluate(model)
