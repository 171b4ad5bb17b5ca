"""Tests for key confirmation (paper §V, Algorithm 4 and Lemma 4)."""

from __future__ import annotations

import pytest

from repro.attacks import IOOracle, key_confirmation
from repro.attacks.key_confirmation import encode_key_shortlist
from repro.attacks.results import AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_sarlock, lock_sfll_hd, lock_ttlock
from repro.sat.cnf import Cnf
from repro.utils.bitops import complement_bits
from repro.utils.timer import Budget

PAPER_CUBE = (1, 0, 0, 1)


class TestShortlistConfirmation:
    def test_confirms_correct_among_two(self):
        # The paper's motivating case: the analyses shortlist the key and
        # its complement; confirmation picks the right one.
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        candidates = [complement_bits(PAPER_CUBE), PAPER_CUBE]
        result = key_confirmation(locked.circuit, IOOracle(original), candidates)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE

    def test_confirms_single_guess(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        result = key_confirmation(locked.circuit, IOOracle(original), [PAPER_CUBE])
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE

    def test_rejects_all_wrong_guesses(self):
        # Lemma 4's ⊥ case: no shortlisted key is consistent.
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        wrong = [(0, 0, 0, 0), (1, 1, 1, 1)]
        result = key_confirmation(locked.circuit, IOOracle(original), wrong)
        assert result.status is AttackStatus.FAILED

    def test_many_candidates_c432_style(self):
        # The paper's c432 corner case: a large shortlist (36 keys) is
        # still a huge reduction; confirmation finds the right one.
        original = generate_random_circuit("c", 12, 3, 80, seed=5)
        locked = lock_sfll_hd(original, h=1, key_width=10, seed=5)
        correct = locked.reveal_correct_key()
        candidates = [correct]
        for i in range(35):
            flipped = list(correct)
            flipped[i % len(flipped)] ^= 1
            if i >= len(flipped):
                flipped[(i + 3) % len(flipped)] ^= 1
            candidates.append(tuple(flipped))
        result = key_confirmation(locked.circuit, IOOracle(original), candidates)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == correct

    def test_succeeds_on_sat_resilient_sarlock(self):
        # Key confirmation works even on SAT-attack-resilient circuits —
        # the paper's headline claim for §V.
        original = generate_random_circuit("sar", 14, 2, 70, seed=7)
        locked = lock_sarlock(original, key_width=14, seed=7)
        correct = locked.reveal_correct_key()
        candidates = [complement_bits(correct), correct]
        result = key_confirmation(locked.circuit, IOOracle(original), candidates)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == correct

    def test_key_equivalent_to_correct_accepted(self):
        # If a shortlisted key is functionally correct (not bit-identical
        # to the defender's), it must be accepted: correctness is
        # semantic (Lemma 4 quantifies over the oracle's function).
        original = generate_random_circuit("eq", 10, 2, 60, seed=8)
        locked = lock_sfll_hd(original, h=0, key_width=8, seed=8)
        correct = locked.reveal_correct_key()
        result = key_confirmation(locked.circuit, IOOracle(original), [correct])
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved


class TestBudgetsAndErrors:
    def test_expired_budget(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        result = key_confirmation(
            locked.circuit, IOOracle(original), [PAPER_CUBE], budget=Budget(0.0)
        )
        assert result.status is AttackStatus.TIMEOUT

    def test_iteration_cap(self):
        original = generate_random_circuit("it", 12, 2, 60, seed=9)
        locked = lock_sarlock(original, key_width=12, seed=9)
        correct = locked.reveal_correct_key()
        result = key_confirmation(
            locked.circuit,
            IOOracle(original),
            [complement_bits(correct), correct],
            max_iterations=2,
        )
        # Uncapped, this shortlist needs six iterations on SARLock: the
        # cap must bite before convergence.
        assert result.status is AttackStatus.TIMEOUT
        assert result.iterations == 2

    def test_empty_shortlist_rejected(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        with pytest.raises(AttackError):
            key_confirmation(locked.circuit, IOOracle(original), [])

    def test_width_mismatch_rejected(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_CUBE)
        with pytest.raises(AttackError):
            key_confirmation(locked.circuit, IOOracle(original), [(1, 0)])

    def test_keyless_circuit_rejected(self):
        original = paper_example_circuit()
        with pytest.raises(AttackError):
            key_confirmation(original, IOOracle(original), [(1,)])


class TestShortlistEncoding:
    def test_exactly_candidates_satisfy(self):
        cnf = Cnf()
        key_vars = {"k0": cnf.new_var(), "k1": cnf.new_var()}
        encode_key_shortlist(cnf, key_vars, ["k0", "k1"], [(0, 1), (1, 0)])
        from repro.sat.solver import Solver, SolveStatus

        matching = []
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            solver = Solver()
            solver.add_cnf(cnf)
            assumptions = [
                var if bit else -var
                for var, bit in zip((key_vars["k0"], key_vars["k1"]), bits)
            ]
            if solver.solve(assumptions=assumptions) is SolveStatus.SAT:
                matching.append(bits)
        assert matching == [(0, 1), (1, 0)]


class TestFasterThanSatAttack:
    def test_fewer_oracle_queries_than_sat_attack_on_sarlock(self):
        # Figure 6's shape: key confirmation is orders of magnitude
        # cheaper. On a SARLock instance the SAT attack needs ~2^m
        # queries while confirmation needs only enough to separate the
        # shortlist.
        original = generate_random_circuit("cmp", 12, 2, 70, seed=10)
        locked = lock_sarlock(original, key_width=12, seed=10)
        correct = locked.reveal_correct_key()
        oracle = IOOracle(original)
        result = key_confirmation(
            locked.circuit, oracle, [correct, complement_bits(correct)]
        )
        assert result.status is AttackStatus.SUCCESS
        # Probe mining + bounded certification needs a few dozen queries
        # at most, versus ~2^12 distinguishing inputs for the SAT attack.
        assert result.oracle_queries <= 24
