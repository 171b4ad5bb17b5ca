"""Tests for the CDCL solver, including differential tests against DPLL."""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings

from repro.errors import SolverError
from repro.sat.cnf import Cnf
from repro.sat.dpll import dpll_solve
from repro.sat import solver as solver_module
from repro.sat.solver import Solver, SolveStatus, _luby
from repro.utils.timer import Budget

from tests.conftest import cnf_strategy, random_cnf


def check_model(cnf: Cnf, solver: Solver) -> None:
    assert cnf.evaluate(solver.model_dict())


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is SolveStatus.SAT

    def test_single_unit(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(1) is True

    def test_negative_unit(self):
        s = Solver()
        s.add_clause([-1])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(1) is False

    def test_contradictory_units(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() is SolveStatus.UNSAT

    def test_empty_clause_is_unsat(self):
        s = Solver()
        s.add_clause([])
        assert s.solve() is SolveStatus.UNSAT

    def test_simple_implication_chain(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(3) is True

    def test_pigeonhole_2_into_1(self):
        # Two pigeons, one hole: var i = "pigeon i in hole".
        s = Solver()
        s.add_clause([1])
        s.add_clause([2])
        s.add_clause([-1, -2])
        assert s.solve() is SolveStatus.UNSAT

    def test_tautologous_clause_ignored(self):
        s = Solver()
        s.add_clause([1, -1])
        s.add_clause([2])
        assert s.solve() is SolveStatus.SAT

    def test_duplicate_literals_collapsed(self):
        s = Solver()
        s.add_clause([1, 1, 1])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(1) is True

    @pytest.mark.parametrize("width", [4, 20])  # list and set dedupe
    def test_wide_clause_dedupe_and_tautology(self, width):
        lits = list(range(1, width + 1))
        all_false = [-v for v in lits]
        s = Solver()
        s.add_clause([*lits, -2])  # tautology: dropped
        assert s.solve(assumptions=all_false) is SolveStatus.SAT
        s.add_clause([*lits, 2, 2])
        (clause,) = s._watches[2]  # the watch list of literal 1
        assert sorted(clause) == [v << 1 for v in lits]
        assert s.solve(assumptions=all_false) is SolveStatus.UNSAT

    def test_model_requires_sat(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() is SolveStatus.UNSAT
        with pytest.raises(SolverError):
            s.model_value(1)

    def test_unknown_variable_in_model_query(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve() is SolveStatus.SAT
        with pytest.raises(SolverError):
            s.model_value(99)

    def test_status_truthiness_is_banned(self):
        with pytest.raises(SolverError):
            bool(SolveStatus.SAT)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) is SolveStatus.SAT
        assert s.model_value(1) is False
        assert s.model_value(2) is True

    def test_conflicting_assumption(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve(assumptions=[-1]) is SolveStatus.UNSAT
        # Solver is reusable after an assumption-UNSAT.
        assert s.solve() is SolveStatus.SAT

    def test_jointly_inconsistent_assumptions(self):
        s = Solver()
        s.add_clause([-1, -2])
        assert s.solve(assumptions=[1, 2]) is SolveStatus.UNSAT
        assert s.solve(assumptions=[1]) is SolveStatus.SAT

    def test_assumptions_do_not_persist(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) is SolveStatus.UNSAT
        assert s.solve() is SolveStatus.SAT

    def test_incremental_clause_addition(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve() is SolveStatus.SAT
        s.add_clause([-1])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(2) is True
        s.add_clause([-2])
        assert s.solve() is SolveStatus.UNSAT

    def test_many_incremental_rounds(self):
        # Mimics the SAT-attack usage pattern: grow the formula, re-solve.
        s = Solver()
        vars_ = s.new_vars(20)
        s.add_clause(vars_)
        for v in vars_[:-1]:
            assert s.solve() is SolveStatus.SAT
            s.add_clause([-v])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(vars_[-1]) is True

    def test_assumption_on_fresh_variable(self):
        s = Solver()
        assert s.solve(assumptions=[5]) is SolveStatus.SAT
        assert s.model_value(5) is True


class TestBudgets:
    def test_expired_budget_returns_unknown_on_hard_instance(self):
        cnf = _pigeonhole_cnf(holes=7)
        s = Solver()
        s.add_cnf(cnf)
        status = s.solve(budget=Budget(0.0))
        # With a zero budget the solver must give up quickly (UNKNOWN)
        # unless it solved the instance before the first budget check.
        assert status in (SolveStatus.UNKNOWN, SolveStatus.UNSAT)

    def test_conflict_limit_returns_unknown(self):
        cnf = _pigeonhole_cnf(holes=7)
        s = Solver()
        s.add_cnf(cnf)
        status = s.solve(conflict_limit=10)
        assert status is SolveStatus.UNKNOWN

    def test_solver_usable_after_unknown(self):
        cnf = _pigeonhole_cnf(holes=6)
        s = Solver()
        s.add_cnf(cnf)
        assert s.solve(conflict_limit=5) is SolveStatus.UNKNOWN
        assert s.solve() is SolveStatus.UNSAT


class TestHarderInstances:
    def test_pigeonhole_unsat(self):
        # PHP(n+1, n) is the classic hard-for-resolution family; n=5 is
        # still easy but exercises learning, restarts and VSIDS.
        assert _solve_ph(5) is SolveStatus.UNSAT

    def test_php_sat_variant(self):
        # n pigeons into n holes is satisfiable.
        cnf = _pigeonhole_cnf(holes=5, pigeons=5)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.SAT
        assert cnf.evaluate(solver.model_dict())

    def test_random_3sat_batch(self):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randint(5, 30)
            cnf = random_cnf(rng, n, int(3.5 * n))
            s = Solver()
            s.add_cnf(cnf)
            status = s.solve()
            expected = dpll_solve(cnf)
            if expected is None:
                assert status is SolveStatus.UNSAT, f"trial {trial}"
            else:
                assert status is SolveStatus.SAT, f"trial {trial}"
                check_model(cnf, s)

    def test_random_with_assumptions_batch(self):
        rng = random.Random(99)
        for trial in range(20):
            n = rng.randint(4, 16)
            cnf = random_cnf(rng, n, 3 * n)
            assumptions = []
            for v in range(1, rng.randint(2, n + 1)):
                assumptions.append(v if rng.random() < 0.5 else -v)
            s = Solver()
            s.add_cnf(cnf)
            status = s.solve(assumptions=assumptions)
            augmented = cnf.copy()
            for lit in assumptions:
                augmented.add_clause([lit])
            expected = dpll_solve(augmented)
            if expected is None:
                assert status is SolveStatus.UNSAT, f"trial {trial}"
            else:
                assert status is SolveStatus.SAT, f"trial {trial}"
                model = s.model_dict()
                assert augmented.evaluate(model), f"trial {trial}"


class TestStats:
    def test_stats_accumulate(self):
        s = Solver()
        s.add_cnf(_pigeonhole_cnf(holes=4))
        assert s.solve() is SolveStatus.UNSAT
        assert s.stats.conflicts > 0
        assert s.stats.decisions > 0
        assert s.stats.propagations > 0
        assert s.stats.solve_calls == 1

    def test_stats_repr(self):
        s = Solver()
        assert "conflicts=0" in repr(s.stats)


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(15)] == expected


@settings(max_examples=150, deadline=None)
@given(cnf=cnf_strategy())
def test_cdcl_matches_dpll(cnf):
    """Differential fuzz: CDCL and reference DPLL agree on SAT/UNSAT."""
    s = Solver()
    s.add_cnf(cnf)
    status = s.solve()
    reference = dpll_solve(cnf)
    if reference is None:
        assert status is SolveStatus.UNSAT
    else:
        assert status is SolveStatus.SAT
        assert cnf.evaluate(s.model_dict())


@settings(max_examples=60, deadline=None)
@given(cnf=cnf_strategy(max_vars=6, max_clauses=16))
def test_cdcl_model_covers_all_vars(cnf):
    s = Solver()
    s.add_cnf(cnf)
    if s.solve() is SolveStatus.SAT:
        model = s.model_dict()
        assert set(model) == set(range(1, s.num_vars + 1))


def _pigeonhole_cnf(holes: int, pigeons: int | None = None) -> Cnf:
    """PHP(pigeons, holes); default pigeons = holes + 1 (UNSAT)."""
    if pigeons is None:
        pigeons = holes + 1
    cnf = Cnf()
    grid = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in grid:
        cnf.add_clause(row)
    for hole in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-grid[p1][hole], -grid[p2][hole]])
    return cnf


def _random_3sat_cnf() -> Cnf:
    """Seeded 3-SAT, 380 clauses over 90 variables."""
    rng = random.Random(11)
    cnf = Cnf(90)
    for _ in range(380):
        cnf.add_clause([rng.randint(1, 90) * rng.choice((1, -1)) for _ in range(3)])
    return cnf


def _solve_ph(holes: int) -> SolveStatus:
    s = Solver()
    s.add_cnf(_pigeonhole_cnf(holes))
    return s.solve()


class TestDeterminism:
    """Run-to-run reproducibility and the exact search fingerprint.

    Seeded attacks, checkpoint resume and portfolio winner selection
    all assume the solver is a deterministic function of its inputs.
    Beyond run-to-run equality, the cases below pin the exact
    ``(status, conflicts, decisions, propagations, restarts)`` of each
    solve. Any change to propagation order, conflict analysis, VSIDS
    tie-breaking, restarts or learnt-clause deletion moves them, so a
    solver speedup must leave them as they are; a deliberate change to
    the search has to re-record them. The tiny ``_max_learnts`` makes
    ``_reduce_db`` fire many times, and a lowered ``_RESCALE_LIMIT``
    exercises activity rescaling.
    """

    @staticmethod
    def _fingerprint(solver: Solver, status: SolveStatus) -> tuple:
        stats = solver.stats
        return (
            status.value,
            stats.conflicts,
            stats.decisions,
            stats.propagations,
            stats.restarts,
        )

    @staticmethod
    def _run(seed: int) -> tuple:
        cnf = _pigeonhole_cnf(6)  # hard enough for hundreds of conflicts
        solver = Solver(random_phase=0.2, seed=seed)
        solver._max_learnts = 30.0  # force frequent DB reductions
        solver.add_cnf(cnf)
        status = solver.solve()
        model = (
            tuple(sorted(solver.model_dict().items()))
            if status is SolveStatus.SAT
            else None
        )
        return (
            status,
            model,
            solver.stats.conflicts,
            solver.stats.decisions,
            solver.stats.propagations,
            solver.stats.restarts,
        )

    @classmethod
    def _blocking_episode(cls, cnf: Cnf, rounds: int, assume: int) -> tuple:
        """Solve, block the model, re-solve: the attack loops' pattern."""
        rng = random.Random(17)
        solver = Solver(random_phase=0.3, seed=5)
        solver._max_learnts = 25.0
        solver.add_cnf(cnf)
        trace = []
        for _ in range(rounds):
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, cnf.num_vars + 1), assume)
            ]
            status = solver.solve(assumptions=assumptions)
            trace.append(cls._fingerprint(solver, status))
            if status is SolveStatus.SAT:
                # Block the current model to force new search next round.
                solver.add_clause([
                    -var if value else var
                    for var, value in solver.model_dict().items()
                ])
            elif not assumptions:
                break
        return tuple(trace)

    def test_identical_stats_across_runs_under_db_reduction(self):
        runs = [self._run(seed=3) for _ in range(3)]
        assert runs[0][2] > 100, "instance too easy to exercise reduce_db"
        assert runs[0] == runs[1] == runs[2]

    def test_pigeonhole_fingerprint(self):
        assert self._run(seed=3) == (SolveStatus.UNSAT, None) + PIGEONHOLE

    def test_incremental_resolve_deterministic(self):
        def episode():
            rng = random.Random(11)
            return self._blocking_episode(random_cnf(rng, 40, 150), 6, 0)

        assert episode() == episode() == INCREMENTAL

    def test_incremental_3sat_fingerprint(self):
        cnf = _random_3sat_cnf()
        assert self._blocking_episode(cnf, 12, 2) == INCREMENTAL_3SAT

    def test_rescale_fingerprint(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_RESCALE_LIMIT", 100.0)
        solver = Solver(seed=1)
        solver.add_cnf(_pigeonhole_cnf(5))
        status = solver.solve()
        assert self._fingerprint(solver, status) == RESCALE


# Recorded search fingerprints: (status, conflicts, decisions,
# propagations, restarts) after each solve; PIGEONHOLE without status.
PIGEONHOLE = (942, 1169, 12565, 5)
INCREMENTAL = (("unsat", 0, 0, 17, 0),)
INCREMENTAL_3SAT = (
    ("unsat", 13, 19, 317, 0),
    ("sat", 47, 89, 1124, 0),
    ("unsat", 89, 139, 1997, 0),
    ("sat", 110, 180, 2476, 0),
    ("sat", 129, 214, 3036, 0),
    ("unsat", 152, 239, 3532, 0),
    ("sat", 178, 284, 4149, 0),
    ("sat", 204, 327, 4893, 0),
    ("unsat", 215, 339, 5061, 0),
    ("unsat", 243, 371, 5756, 0),
    ("unsat", 249, 383, 5873, 0),
    ("sat", 283, 444, 6805, 0),
)
RESCALE = ("unsat", 147, 186, 1684, 1)


def _vsids_argmax(solver: Solver) -> int:
    """Brute force: the unassigned variable of highest activity, ties to
    the lowest index; 0 when every variable is assigned."""
    best = 0
    for var in range(1, solver.num_vars + 1):
        if solver._values[var << 1] != solver_module._UNASSIGNED:
            continue
        if best == 0 or solver._activity[var] > solver._activity[best]:
            best = var
    return best


def _searches() -> None:
    """Seeded pigeonhole, forced-reduction and 3-SAT blocking runs."""
    solver = Solver(seed=1)
    solver.add_cnf(_pigeonhole_cnf(5))
    assert solver.solve() is SolveStatus.UNSAT
    TestDeterminism._run(seed=3)  # tiny _max_learnts: many reductions
    TestDeterminism._blocking_episode(_random_3sat_cnf(), 12, 2)


class TestVsidsOrder:
    """Every decision takes the highest-activity unassigned variable,
    ties going to the lowest index, also across activity rescales."""

    @pytest.mark.parametrize("rescale_limit", [None, 100.0])
    def test_pick_is_argmax_of_activity(self, monkeypatch, rescale_limit):
        if rescale_limit is not None:
            monkeypatch.setattr(solver_module, "_RESCALE_LIMIT", rescale_limit)
        picks = []
        rescales = []
        pick = Solver._pick_branch_var
        rescale = Solver._rescale_activities

        def checked_pick(self):
            # The presence flag is exact: a variable's current key is in
            # the heap once when the flag is set, else not at all, and
            # every unassigned variable's is there.
            counts = Counter(self._heap)
            for var in range(1, self.num_vars + 1):
                assert counts[self._heap_key[var]] == self._in_heap[var]
                if self._values[var << 1] == solver_module._UNASSIGNED:
                    assert self._in_heap[var]
            expected = _vsids_argmax(self)
            var = pick(self)
            assert var == expected
            picks.append(var)
            return var

        def checked_rescale(self):
            rescale(self)
            # One heap entry per variable, every one present.
            assert sorted(self._heap) == sorted(self._heap_key[1:])
            assert all(self._in_heap[1:])
            rescales.append(self.stats.conflicts)

        monkeypatch.setattr(Solver, "_pick_branch_var", checked_pick)
        monkeypatch.setattr(Solver, "_rescale_activities", checked_rescale)
        _searches()
        assert len(picks) > 1000
        assert bool(rescales) == (rescale_limit is not None)


class TestWatchInvariant:
    """After every propagation and database reduction, each live long
    clause sits once in the watch lists of ``clause[0]`` and ``clause[1]``
    and in no other; deleted learnt clauses sit in none. Each binary
    clause ``{a, b}`` ever attached sits once as ``b`` in ``watches[a]``
    and once as ``a`` in ``watches[b]``, and there are no other int
    entries: no learnt binary is ever deleted."""

    def test_watch_lists_match_watched_slots(self, monkeypatch):
        # Per solver (held, so ids stay unique): id -> clause.
        live: dict[Solver, dict[int, list[int]]] = defaultdict(dict)
        deleted: dict[Solver, dict[int, list[int]]] = defaultdict(dict)
        # Per solver: (watched literal, int entry) -> count.
        binaries: dict[Solver, Counter] = defaultdict(Counter)
        reductions = []
        learnt_binaries = []
        propagate = Solver._propagate
        reduce_db = Solver._reduce_db
        attach = Solver._attach

        def check(solver):
            found: dict[int, list[int]] = {}
            found_binaries: Counter = Counter()
            for lit, watchlist in enumerate(solver._watches):
                for clause in watchlist:
                    if type(clause) is int:
                        found_binaries[lit, clause] += 1
                        continue
                    assert len(clause) > 2, "binary clause watched as a list"
                    key = id(clause)
                    assert key not in deleted[solver], "deleted clause watched"
                    assert key in live[solver], "unknown clause watched"
                    found.setdefault(key, []).append(lit)
            for key, clause in live[solver].items():
                assert sorted(found.get(key, ())) == sorted(clause[:2])
            assert found_binaries == binaries[solver]

        def checked_attach(self, clause):
            if len(clause) == 2:
                a, b = clause
                binaries[self][a, b] += 1
                binaries[self][b, a] += 1
            else:
                live[self][id(clause)] = clause
            attach(self, clause)

        def checked_propagate(self):
            conflict = propagate(self)
            check(self)
            return conflict

        def checked_reduce_db(self):
            before = self._learnts
            reduce_db(self)
            kept = {id(clause) for clause in self._learnts}
            for clause in before:
                if id(clause) not in kept:
                    deleted[self][id(clause)] = live[self].pop(id(clause))
            reductions.append(len(before) - len(kept))
            learnt_binaries.append(self._binary_learnts)
            check(self)

        monkeypatch.setattr(Solver, "_attach", checked_attach)
        monkeypatch.setattr(Solver, "_propagate", checked_propagate)
        monkeypatch.setattr(Solver, "_reduce_db", checked_reduce_db)
        _searches()
        assert len(reductions) > 5 and sum(reductions) > 100
        assert max(learnt_binaries) > 0, "the searches learnt no binary clause"


class TestAddCnf:
    def test_load_clear_append_load(self):
        # The owners' pattern: load, clear the buffer, append, load again.
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        solver = Solver()
        solver.add_cnf(cnf)
        cnf.clauses.clear()
        cnf.add_clause([-a])
        assert solver.solve() is SolveStatus.SAT
        solver.add_cnf(cnf)
        cnf.clauses.clear()
        assert solver.solve() is SolveStatus.SAT
        assert solver.model_value(b) is True
        c = cnf.new_var()  # numbering continues after a clear
        assert c == 3
        cnf.add_clause([-b, c])
        cnf.add_clause([-c])
        solver.add_cnf(cnf)
        assert solver.num_vars == 3
        assert solver.solve() is SolveStatus.UNSAT

    def test_leaves_its_argument_untouched(self):
        rng = random.Random(4)
        cnf = random_cnf(rng, 12, 40)
        clauses = list(cnf.clauses)
        num_vars = cnf.num_vars
        solver = Solver()
        solver.add_cnf(cnf)
        assert cnf.clauses == clauses
        assert cnf.num_vars == num_vars
        if solver.solve() is SolveStatus.SAT:
            check_model(cnf, solver)
        else:
            assert dpll_solve(cnf) is None

    def test_registers_every_variable(self):
        cnf = Cnf(5)
        solver = Solver()
        assert solver.add_cnf(cnf) is None
        assert solver.num_vars == 5
