"""Tests for the CNF container."""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from repro.sat.cnf import Cnf


class TestConstruction:
    def test_new_var_is_sequential(self):
        cnf = Cnf()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_new_vars_bulk(self):
        cnf = Cnf()
        assert cnf.new_vars(3) == [1, 2, 3]

    def test_new_vars_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Cnf().new_vars(-1)

    def test_negative_initial_vars_rejected(self):
        with pytest.raises(ValueError):
            Cnf(-2)

    def test_add_clause_grows_num_vars(self):
        cnf = Cnf()
        cnf.add_clause([3, -5])
        assert cnf.num_vars == 5
        assert cnf.clauses == [(3, -5)]

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            Cnf().add_clause([1, 0])

    def test_bool_literal_rejected(self):
        with pytest.raises(SolverError):
            Cnf().add_clause([True])

    def test_add_clauses_bulk(self):
        cnf = Cnf()
        cnf.add_clauses([[1], [2, -1]])
        assert cnf.num_clauses == 2

    def test_copy_is_independent(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        dup = cnf.copy()
        dup.add_clause([-1])
        assert cnf.num_clauses == 1
        assert dup.num_clauses == 2


class TestEvaluate:
    def test_satisfied(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        assert cnf.evaluate({1: True, 2: True})

    def test_falsified(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        assert not cnf.evaluate({1: False, 2: True})

    def test_partial_assignment_rejected(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        with pytest.raises(SolverError):
            cnf.evaluate({1: False})

    def test_empty_formula_is_true(self):
        assert Cnf().evaluate({})

