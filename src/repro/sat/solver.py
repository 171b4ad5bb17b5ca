"""CDCL SAT solver.

A conflict-driven clause learning solver in the MiniSat lineage:

- two-watched-literal propagation; a binary clause ``[a, b]`` is kept
  inline as the int ``b`` in the watch list of ``a`` and ``a`` in that of
  ``b`` (deleted learnt clauses are detached from both of their watch
  lists when the database is reduced),
- first-UIP conflict analysis with basic clause minimization,
- VSIDS branching (a binary heap holding each variable's current key at
  most once, with phase saving),
- Luby restarts,
- LBD-based learned-clause database reduction,
- incremental solving under assumptions (clauses may be added between
  ``solve`` calls).

The solver replaces Lingeling [Biere 2013], which the paper's prototype
used. Budgets are cooperative: ``solve`` checks its wall-clock budget and
conflict limit periodically and returns :data:`SolveStatus.UNKNOWN` when
either is exhausted — that is how the harness implements the paper's
1000-second attack timeout.

External literals are DIMACS-style signed ints; see
:mod:`repro.sat.literals` for the internal even/odd mapping.
"""

from __future__ import annotations

import enum
import random
from array import array
from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush

from repro.errors import SolverError
from repro.sat.cnf import Cnf
from repro.sat.literals import check_literal, to_internal
from repro.utils.timer import Budget

_UNASSIGNED = 0
_TRUE = 1
_FALSE = 2

_VAR_DECAY = 0.95
_RESCALE_LIMIT = 1e100
_LUBY_UNIT = 128
_BUDGET_CHECK_INTERVAL = 128
# Loading dedupes clauses up to this length with a list, longer ones
# with a set.
_LIST_DEDUPE_MAX = 16

# The VSIDS heap holds int keys that sort exactly like the tuples
# ``(-activity, var)``: the high bits are _KEY_TOP minus the IEEE-754 bit
# pattern of the activity (monotone in the value of a non-negative
# double), the low _VAR_BITS bits are the variable. Ints compare faster
# than tuples.
_VAR_BITS = 32
_VAR_MASK = (1 << _VAR_BITS) - 1
_KEY_TOP = (1 << 63) - 1


class SolveStatus(enum.Enum):
    """Result of a ``solve`` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise SolverError(
            "SolveStatus is tri-valued; compare against SolveStatus.SAT "
            "explicitly instead of using truthiness"
        )


class SolverStats:
    """Counters accumulated across all ``solve`` calls of one solver."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts", "solve_calls")

    def __init__(self):
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.solve_calls = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({fields})"


def _luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence.

    Ported from MiniSat's ``luby(2, x)``: 1, 1, 2, 1, 1, 2, 4, 1, ...
    """
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """Incremental CDCL solver.

    >>> s = Solver()
    >>> a, b = s.new_var(), s.new_var()
    >>> s.add_clause([a, b])
    >>> s.add_clause([-a, b])
    >>> s.solve() is SolveStatus.SAT
    True
    >>> s.model_value(b)
    True
    """

    def __init__(self, random_phase: float = 0.0, seed: int = 0):
        """``random_phase`` is the probability that a branching decision
        uses a random polarity instead of the saved phase (MiniSat's
        ``rnd_pol``). Oracle-guided attacks set it non-zero so that
        successive models are decorrelated — the distinguishing-input
        generators degrade badly when phase saving steers every solve
        into the same corner of the solution space."""
        if not 0.0 <= random_phase <= 1.0:
            raise SolverError(f"random_phase must be in [0, 1], got {random_phase}")
        self._random_phase = random_phase
        self._rng = random.Random(seed)
        self._num_vars = 0
        # Indexed by internal literal (2v / 2v+1); slots 0 and 1 are
        # padding so that var 1 maps to indices 2 and 3.
        self._values: list[int] = [_UNASSIGNED, _UNASSIGNED]
        # A watch-list entry is a clause of three or more literals, or
        # the other literal of a binary clause.
        self._watches: list[list[list[int] | int]] = [[], []]
        # Indexed by variable (slot 0 padding). A reason is a clause, or
        # for a binary clause ``[implied, r]`` the false literal ``r``.
        self._activity: list[float] = [0.0]
        self._reason: list[list[int] | int | None] = [None]
        self._level: list[int] = [-1]
        self._phase: list[bool] = [False]
        self._seen: list[int] = [0]

        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0

        # Every unassigned variable's current key is in the heap, at most
        # once: ``_in_heap[v]`` says whether ``_heap_key[v]`` is. Keys of
        # assigned variables and keys outdated by a bump may linger; they
        # are dropped when popped. ``_rebuild_heap`` (after an activity
        # rescale, and after a model instead of unassigning the trail one
        # variable at a time) puts every variable's current key back,
        # once each, and drops the rest.
        self._heap: list[int] = []
        self._heap_key: list[int] = [0]  # per variable, for its activity
        self._in_heap: list[bool] = [False]
        self._var_inc = 1.0
        # One double and its bit pattern, for computing heap keys.
        self._f64 = array("d", [0.0])
        self._f64_bits = memoryview(self._f64).cast("B").cast("q")

        self._learnts: list[list[int]] = []  # learnt clauses of 3+ literals
        self._lbd: dict[int, int] = {}  # id(learnt clause) -> LBD
        # Learnt binaries live only in the watch lists. Their LBD is at
        # most 2, so ``_reduce_db`` would always keep them: they are never
        # detached, and only count towards ``_max_learnts``.
        self._binary_learnts = 0
        self._max_learnts = 4000.0

        self._ok = True
        self._model: list[bool] | None = None
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self._ensure_var(self._num_vars + 1)
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        """Register every variable up to ``var``: unassigned, activity 0,
        its key in the heap."""
        first = self._num_vars + 1
        if var < first:
            return
        count = var + 1 - first
        self._num_vars = var
        self._values += [_UNASSIGNED] * (2 * count)
        self._watches += [[] for _ in range(2 * count)]
        self._activity += [0.0] * count
        self._reason += [None] * count
        self._level += [-1] * count
        self._phase += [False] * count
        self._seen += [0] * count
        self._in_heap += [True] * count
        keys = range(  # activity 0.0
            (_KEY_TOP << _VAR_BITS) | first, ((_KEY_TOP << _VAR_BITS) | var) + 1
        )
        self._heap_key += keys
        heap = self._heap
        for key in keys:
            heappush(heap, key)

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause (only legal at decision level 0, i.e. between solves)."""
        if self._trail_lim:
            raise SolverError("add_clause called while search is in progress")
        if not self._ok:
            return
        clause = tuple(lits)
        top = 0
        for lit in clause:
            if type(lit) is not int or not lit:
                check_literal(lit)  # raises on zero, bools and non-ints
            if lit > top:
                top = lit
            elif -lit > top:
                top = -lit
        self._ensure_var(top)
        self._load((clause,))

    def add_cnf(self, cnf: Cnf) -> None:
        """Load every clause of ``cnf`` (variables are shared 1:1).

        ``cnf`` is left as it is. An owner that keeps growing the formula
        between solves clears ``cnf.clauses`` after each call, so the
        next call loads only what was added since; ``cnf.num_vars`` keeps
        counting, so new variables keep their numbers. The clauses are
        loaded as ``add_clause`` would, one by one, but without checking
        each literal again: a ``Cnf`` holds only non-zero ints up to its
        ``num_vars``.
        """
        if self._trail_lim:
            raise SolverError("add_cnf called while search is in progress")
        self._ensure_var(cnf.num_vars)
        if self._ok:
            self._load(cnf.clauses)

    def _load(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses of valid literals over known variables at the root.

        Each clause is deduplicated and loses its root-false literals; a
        tautology or a clause with a root-true literal is dropped. The
        first empty clause, or unit clause whose propagation conflicts,
        makes the formula unsatisfiable and ends the load. Short clauses
        (nearly all of them) are deduplicated against the clause itself,
        which is cheaper than building a set.
        """
        values = self._values
        attach = self._attach
        for lits in clauses:
            clause: list[int] = []
            seen = clause if len(lits) <= _LIST_DEDUPE_MAX else set()
            for lit in lits:
                ilit = lit << 1 if lit > 0 else (-lit << 1) | 1
                value = values[ilit]
                if value == _TRUE or ilit ^ 1 in seen:
                    break  # satisfied at root level, or a tautology
                if value == _FALSE or ilit in seen:
                    continue  # permanently false, or repeated
                clause.append(ilit)
                if seen is not clause:
                    seen.add(ilit)
            else:
                if len(clause) > 1:
                    attach(clause)
                    continue
                if clause:
                    self._enqueue(clause[0], None)
                    if self._propagate() is None:
                        continue
                self._ok = False
                return

    @property
    def num_vars(self) -> int:
        return self._num_vars

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _attach(self, clause: list[int]) -> None:
        first, second = clause[0], clause[1]
        if len(clause) == 2:
            self._watches[first].append(second)
            self._watches[second].append(first)
        else:
            self._watches[first].append(clause)
            self._watches[second].append(clause)

    def _enqueue(self, ilit: int, reason: list[int] | int | None) -> None:
        values = self._values
        values[ilit] = _TRUE
        values[ilit ^ 1] = _FALSE
        var = ilit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)

    def _propagate(self) -> list[int] | None:
        """Propagate until fixpoint; return a conflicting clause or None.

        Every long clause sits in the watch lists of exactly ``clause[0]``
        and ``clause[1]``. A visited clause whose other watch is true is
        left as it is, false watch in either slot. Otherwise the false
        watch goes to ``clause[1]``, so a reason clause always has its
        implied literal in ``clause[0]`` (``_analyze`` and ``_reduce_db``
        rely on that); then a non-false literal further on takes its
        place as a watch, and failing that the clause is unit or
        conflicting. An int entry ``other`` is the binary clause
        ``[other, false_lit]``: it implies ``other`` with the reason
        ``false_lit``, or conflicts as that list.
        """
        values = self._values
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        current_level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict: list[int] | None = None
        # A list iterator sees the literals appended while it runs; it
        # starts at qhead (its pickling state is its position).
        pending = iter(trail)
        pending.__setstate__(qhead)
        for false_lit in pending:
            false_lit ^= 1
            qhead += 1
            watchlist = watches[false_lit]
            moved = False
            for clause in watchlist:
                if type(clause) is int:
                    value = values[clause]
                    if value == _TRUE:
                        continue
                    if value == _FALSE:
                        conflict = [clause, false_lit]
                        break
                    values[clause] = _TRUE
                    values[clause ^ 1] = _FALSE
                    var = clause >> 1
                    level[var] = current_level
                    reason[var] = false_lit
                    trail.append(clause)
                    continue
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    if values[first] == _TRUE:
                        continue
                    clause[0] = first
                    clause[1] = false_lit
                elif values[first] == _TRUE:
                    continue
                size = len(clause)
                k = 2
                while k < size:
                    other = clause[k]
                    if values[other] != _FALSE:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        moved = True
                        break
                    k += 1
                else:
                    # Unit or conflicting: the clause keeps this watch.
                    if values[first] == _FALSE:
                        conflict = clause
                        break
                    values[first] = _TRUE
                    values[first ^ 1] = _FALSE
                    var = first >> 1
                    level[var] = current_level
                    reason[var] = clause
                    trail.append(first)
            if moved:
                # Drop the clauses whose watch moved on; false_lit is
                # still in slot 0 or 1 of every other one, including
                # the tail left unvisited by a conflict. Binary entries
                # never move.
                watches[false_lit] = [
                    c
                    for c in watchlist
                    if type(c) is int or c[1] == false_lit or c[0] == false_lit
                ]
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return conflict

    def _rescale_activities(self) -> None:
        """Scale every activity down and rebuild the heap around the new
        keys (see _KEY_TOP)."""
        inverse = 1.0 / _RESCALE_LIMIT
        activity = self._activity
        heap_key = self._heap_key
        f64 = self._f64
        f64_bits = self._f64_bits
        for v in range(1, self._num_vars + 1):
            f64[0] = activity[v] = activity[v] * inverse
            heap_key[v] = ((_KEY_TOP - f64_bits[0]) << _VAR_BITS) | v
        self._var_inc *= inverse
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Make the heap hold every variable's current key, once each."""
        heap = self._heap
        heap[:] = self._heap_key[1:]
        heapify(heap)
        self._in_heap[1:] = [True] * self._num_vars

    def _decay_activities(self) -> None:
        self._var_inc /= _VAR_DECAY

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backtrack_level, lbd)`` where
        ``learnt_clause[0]`` is the asserting literal and, when the clause
        is longer than one literal, ``learnt_clause[1]`` has the highest
        remaining level (watch invariant).
        """
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        heap_key = self._heap_key
        in_heap = self._in_heap
        f64 = self._f64
        f64_bits = self._f64_bits
        var_inc = self._var_inc
        current_level = len(self._trail_lim)

        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        index = len(trail) - 1
        clause = conflict
        while True:
            # The literal ``p`` a reason clause implied is skipped as seen.
            for q in clause:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    # VSIDS bump. ``var`` is assigned, so its new key
                    # enters the heap when it is unassigned.
                    bumped = activity[var] + var_inc
                    activity[var] = bumped
                    if bumped > _RESCALE_LIMIT:
                        self._rescale_activities()
                        var_inc = self._var_inc
                    else:
                        f64[0] = bumped
                        heap_key[var] = (
                            (_KEY_TOP - f64_bits[0]) << _VAR_BITS
                        ) | var
                        in_heap[var] = False
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[p >> 1]
            if type(clause) is int:
                clause = (clause,)  # [p, r]; p would be skipped
        learnt[0] = p ^ 1

        # Basic clause minimization: drop literals whose reason is fully
        # contained in the learnt clause's variables.
        if len(learnt) > 2:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                r = reason[q >> 1]
                if r is None:
                    minimized.append(q)
                    continue
                if type(r) is int:
                    r = (r,)  # [q ^ 1, r]; q's variable is seen
                for other in r:
                    other_var = other >> 1
                    if not seen[other_var] and level[other_var] > 0:
                        minimized.append(q)
                        break
            learnt = minimized

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            return learnt, 0, 1
        # Move the highest-level literal (other than the asserting one)
        # to index 1 and compute the backtrack level + LBD.
        max_index = 1
        max_level = level[learnt[1] >> 1]
        for idx in range(2, len(learnt)):
            lvl = level[learnt[idx] >> 1]
            if lvl > max_level:
                max_level = lvl
                max_index = idx
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, max_level, lbd

    def _cancel_until(self, target_level: int) -> None:
        """Unassign every level above ``target_level``.

        ``level`` and ``reason`` of an unassigned variable go stale; they
        are only read for assigned variables (``_reduce_db`` checks).
        """
        trail_lim = self._trail_lim
        if len(trail_lim) <= target_level:
            return
        values = self._values
        phase = self._phase
        heap_key = self._heap_key
        in_heap = self._in_heap
        heap = self._heap
        trail = self._trail
        boundary = trail_lim[target_level]
        for ilit in trail[boundary:]:
            var = ilit >> 1
            phase[var] = not (ilit & 1)
            values[ilit] = _UNASSIGNED
            values[ilit ^ 1] = _UNASSIGNED
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, heap_key[var])
        del trail[boundary:]
        del trail_lim[target_level:]
        self._qhead = boundary

    def _reset_to_root(self) -> None:
        """``_cancel_until(0)`` in bulk, right after ``_store_model``.

        Every variable is assigned, so each one above the root would be
        unassigned, save its model value as its phase and have its
        current key pushed. Instead the values are rebuilt from the root
        trail, the phases copied from the model and the heap rebuilt
        from every current key. The next decision is the same: it pops
        the smallest current key of an unassigned variable, and every
        other key in the heap (a root variable's, or an outdated one)
        is discarded when popped. The phases of root variables, which
        ``_cancel_until`` leaves alone, are never read.
        """
        trail_lim = self._trail_lim
        if not trail_lim:
            return
        trail = self._trail
        del trail[trail_lim[0]:]
        trail_lim.clear()
        self._qhead = len(trail)
        values = self._values
        values[:] = [_UNASSIGNED] * len(values)  # in place: ``solve`` holds it
        for ilit in trail:
            values[ilit] = _TRUE
            values[ilit ^ 1] = _FALSE
        self._phase[:] = self._model
        self._rebuild_heap()

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, ties going to the
        lowest index. Only called while some variable is unassigned, and
        so has its current key in the heap."""
        values = self._values
        heap = self._heap
        in_heap = self._in_heap
        while True:
            # The popped key is ``var``'s current one, or an outdated one
            # of lower activity, which sorts after the current key and so
            # surfaces only once that has left: either way it is gone.
            var = heappop(heap) & _VAR_MASK
            in_heap[var] = False
            if values[var << 1] == _UNASSIGNED:
                return var

    def _reduce_db(self) -> None:
        """Drop the worst half of learned clauses (by LBD, then length).

        Deleted clauses are detached from the watch lists of their two
        watched literals, ``clause[0]`` and ``clause[1]``. Learnt
        binaries are never candidates (see ``_binary_learnts``).
        """
        values = self._values
        reason = self._reason
        lbd = self._lbd
        keep_always = []
        candidates = []
        for clause in self._learnts:
            # A clause that is currently a reason must stay; ``reason``
            # of an unassigned variable is stale.
            first = clause[0]
            is_reason = values[first] and reason[first >> 1] is clause
            if is_reason or lbd.get(id(clause), 9) <= 2:
                keep_always.append(clause)
            else:
                candidates.append(clause)
        candidates.sort(key=lambda c: (lbd.get(id(c), 9), len(c)))
        cutoff = len(candidates) // 2
        removed = candidates[cutoff:]
        # ``removed`` keeps the clauses alive, so their ids stay unique
        # while the watch lists are filtered.
        dead = {id(clause) for clause in removed}
        watched = {clause[0] for clause in removed}
        watched.update(clause[1] for clause in removed)
        watches = self._watches
        for lit in watched:
            watches[lit] = [c for c in watches[lit] if id(c) not in dead]
        for clause in removed:
            lbd.pop(id(clause), None)
        self._learnts = keep_always + candidates[:cutoff]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Iterable[int] = (),
        budget: Budget | None = None,
        conflict_limit: int | None = None,
    ) -> SolveStatus:
        """Solve under ``assumptions``.

        Returns :data:`SolveStatus.UNKNOWN` if the wall-clock ``budget``
        or the ``conflict_limit`` is exhausted first.
        """
        self.stats.solve_calls += 1
        self._model = None
        if not self._ok:
            return SolveStatus.UNSAT
        if budget is not None and budget.expired:
            return SolveStatus.UNKNOWN
        assumed: list[int] = []
        for lit in assumptions:
            check_literal(lit)
            var = lit if lit > 0 else -lit
            self._ensure_var(var)
            assumed.append(to_internal(lit))

        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return SolveStatus.UNSAT

        conflicts_at_entry = self.stats.conflicts
        restart_index = 0
        conflicts_until_restart = _luby(restart_index) * _LUBY_UNIT
        budget_countdown = _BUDGET_CHECK_INTERVAL

        values = self._values
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_until_restart -= 1
                budget_countdown -= 1
                if not self._trail_lim:
                    self._ok = False
                    return SolveStatus.UNSAT
                if len(self._trail_lim) <= len(assumed):
                    # Conflict while only assumptions are on the trail:
                    # the assumptions are jointly inconsistent.
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                learnt, back_level, lbd = self._analyze(conflict)
                self._cancel_until(max(back_level, 0))
                if len(learnt) == 1:
                    # Asserting unit: becomes a root-level fact only if no
                    # assumptions are active below; _cancel_until(0) happens
                    # naturally because back_level is 0.
                    self._enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    if len(learnt) == 2:
                        self._binary_learnts += 1
                        self._enqueue(learnt[0], learnt[1])
                    else:
                        self._learnts.append(learnt)
                        self._lbd[id(learnt)] = lbd
                        self._enqueue(learnt[0], learnt)
                self._decay_activities()
                if budget_countdown <= 0:
                    budget_countdown = _BUDGET_CHECK_INTERVAL
                    if budget is not None and budget.expired:
                        self._cancel_until(0)
                        return SolveStatus.UNKNOWN
                    if (
                        conflict_limit is not None
                        and self.stats.conflicts - conflicts_at_entry
                        >= conflict_limit
                    ):
                        self._cancel_until(0)
                        return SolveStatus.UNKNOWN
                continue

            if conflicts_until_restart <= 0:
                self.stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = _luby(restart_index) * _LUBY_UNIT
                self._cancel_until(0)
                continue

            if len(self._learnts) + self._binary_learnts >= self._max_learnts:
                self._reduce_db()
                self._max_learnts *= 1.3

            # Decide: assumptions first, then VSIDS.
            current_level = len(self._trail_lim)
            if current_level < len(assumed):
                ilit = assumed[current_level]
                if values[ilit] == _TRUE:
                    # Already implied; open an empty decision level so the
                    # level<->assumption indexing stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                if values[ilit] == _FALSE:
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(ilit, None)
                continue

            if len(self._trail) == self._num_vars:
                # Every variable is assigned. The heap may still hold keys,
                # but only of assigned variables or outdated ones, which a
                # pop would discard: the search is the same as draining it.
                self._store_model()
                self._reset_to_root()
                return SolveStatus.SAT
            var = self._pick_branch_var()
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            if self._random_phase and self._rng.random() < self._random_phase:
                phase = self._rng.random() < 0.5
            else:
                phase = self._phase[var]
            ilit = (var << 1) | (0 if phase else 1)
            self._enqueue(ilit, None)

    def _store_model(self) -> None:
        # values[2v] is the value of the positive literal of variable v.
        self._model = [False, *map(_TRUE.__eq__, self._values[2::2])]

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the most recent SAT model."""
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        if not 1 <= var <= self._num_vars:
            raise SolverError(f"unknown variable {var}")
        return self._model[var]

    def model_dict(self) -> dict[int, bool]:
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return {v: self._model[v] for v in range(1, self._num_vars + 1)}

