"""Deeper incremental-solving and assumption fuzz tests for the CDCL solver.

The attack loops lean hard on incremental reuse (thousands of solves on
one growing instance, under changing assumptions), so this file fuzzes
exactly that usage pattern against the DPLL reference.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.sat.cnf import Cnf
from repro.sat.dpll import dpll_solve
from repro.sat.solver import Solver, SolveStatus

from tests.conftest import random_cnf


class TestIncrementalFuzz:
    def test_interleaved_adds_and_assumption_solves(self):
        rng = random.Random(2024)
        for trial in range(12):
            num_vars = rng.randint(6, 14)
            solver = Solver()
            accumulated = Cnf(num_vars)
            solver._ensure_var(num_vars)
            for step in range(8):
                # Add a batch of random clauses.
                batch = random_cnf(rng, num_vars, rng.randint(1, 4))
                for clause in batch.clauses:
                    accumulated.add_clause(clause)
                    solver.add_clause(clause)
                # Solve under random assumptions.
                assumed = []
                for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3)):
                    assumed.append(v if rng.random() < 0.5 else -v)
                status = solver.solve(assumptions=assumed)
                reference = accumulated.copy()
                for lit in assumed:
                    reference.add_clause([lit])
                expected = dpll_solve(reference)
                if expected is None:
                    assert status is SolveStatus.UNSAT, (trial, step)
                else:
                    assert status is SolveStatus.SAT, (trial, step)
                    model = solver.model_dict()
                    assert reference.evaluate(model), (trial, step)
                # Once the base formula is UNSAT, it stays UNSAT.
                if dpll_solve(accumulated) is None:
                    assert solver.solve() is SolveStatus.UNSAT
                    break

    def test_unsat_is_sticky(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is SolveStatus.UNSAT
        solver.add_clause([2])
        assert solver.solve() is SolveStatus.UNSAT
        assert solver.solve(assumptions=[2]) is SolveStatus.UNSAT

    def test_add_clause_after_assumption_unsat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) is SolveStatus.UNSAT
        solver.add_clause([-1])
        assert solver.solve() is SolveStatus.SAT
        assert solver.model_value(2) is True

    def test_hundreds_of_assumption_solves(self):
        # The key-confirmation pattern: one instance, many assumption sets.
        solver = Solver()
        vars_ = solver.new_vars(12)
        # xor-chain structure: v1 ^ v2 ^ ... ^ v12 = 1 via pairwise aux.
        rng = random.Random(5)
        cnf = random_cnf(rng, 12, 30)
        solver.add_cnf(cnf)
        reference_sat = dpll_solve(cnf) is not None
        for pattern in range(64):
            assumed = [
                vars_[i] if (pattern >> i) & 1 else -vars_[i]
                for i in range(6)
            ]
            status = solver.solve(assumptions=assumed)
            augmented = cnf.copy()
            for lit in assumed:
                augmented.add_clause([lit])
            expected = dpll_solve(augmented)
            assert (status is SolveStatus.SAT) == (expected is not None)
        # The unconditioned problem must be unaffected by assumptions.
        assert (solver.solve() is SolveStatus.SAT) == reference_sat


class TestRandomPhase:
    def test_deterministic_for_seed(self):
        rng = random.Random(77)
        cnf = random_cnf(rng, 10, 25)
        models = []
        for _ in range(2):
            solver = Solver(random_phase=0.5, seed=123)
            solver.add_cnf(cnf)
            if solver.solve() is SolveStatus.SAT:
                models.append(tuple(sorted(solver.model_dict().items())))
        assert len(set(models)) <= 1

    def test_rejects_out_of_range(self):
        with pytest.raises(SolverError):
            Solver(random_phase=1.5)
        with pytest.raises(SolverError):
            Solver(random_phase=-0.1)

    def test_correctness_unaffected(self):
        rng = random.Random(31)
        for trial in range(15):
            cnf = random_cnf(rng, rng.randint(4, 12), rng.randint(5, 30))
            baseline = dpll_solve(cnf)
            solver = Solver(random_phase=0.7, seed=trial)
            solver.add_cnf(cnf)
            status = solver.solve()
            assert (status is SolveStatus.SAT) == (baseline is not None)
            if status is SolveStatus.SAT:
                assert cnf.evaluate(solver.model_dict())


class TestApiGuards:
    def test_add_clause_during_search_rejected(self):
        # Internal guard: adding clauses is only legal between solves.
        solver = Solver()
        solver.add_clause([1, 2])
        solver._trail_lim.append(0)  # simulate mid-search state
        with pytest.raises(SolverError):
            solver.add_clause([3])
        solver._trail_lim.pop()

    def test_new_vars_bulk(self):
        solver = Solver()
        assert solver.new_vars(3) == [1, 2, 3]
        assert solver.num_vars == 3

    def test_model_dict_requires_sat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        solver.solve()
        with pytest.raises(SolverError):
            solver.model_dict()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    flip_count=st.integers(min_value=0, max_value=4),
)
def test_solve_is_repeatable_under_reuse(seed, flip_count):
    """Re-solving the same instance gives the same SAT/UNSAT answer."""
    rng = random.Random(seed)
    cnf = random_cnf(rng, 8, 20)
    solver = Solver()
    solver.add_cnf(cnf)
    first = solver.solve()
    for _ in range(flip_count):
        assert solver.solve() is first
