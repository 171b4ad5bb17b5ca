"""Tests for SFLL-flex and its role as a FALL scope boundary."""

from __future__ import annotations

import pytest

from repro.attacks.fall.pipeline import fall_attack
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_pattern
from repro.errors import LockingError
from tests.locking.sfll_flex import lock_sfll_flex
from repro.utils.timer import Budget


class TestLocking:
    def test_correct_key_restores_function(self):
        original = paper_example_circuit()
        locked = lock_sfll_flex(
            original, num_cubes=2, cubes=[(1, 0, 0, 1), (0, 1, 1, 0)]
        )
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    def test_key_is_concatenated_cubes(self):
        locked = lock_sfll_flex(
            paper_example_circuit(),
            num_cubes=2,
            cubes=[(1, 0, 0, 1), (0, 1, 1, 0)],
        )
        assert locked.reveal_correct_key() == (1, 0, 0, 1, 0, 1, 1, 0)
        assert locked.key_width == 8

    def test_single_cube_equals_ttlock_function(self):
        from repro.locking import lock_ttlock

        original = paper_example_circuit()
        flex = lock_sfll_flex(original, num_cubes=1, cubes=[(1, 0, 0, 1)])
        ttlock = lock_ttlock(original, cube=(1, 0, 0, 1))
        assert check_equivalence(flex.circuit, ttlock.circuit).proved

    def test_wrong_key_corrupts(self):
        original = paper_example_circuit()
        locked = lock_sfll_flex(
            original, num_cubes=2, cubes=[(1, 0, 0, 1), (0, 1, 1, 0)]
        )
        wrong = (0, 0, 0, 0, 1, 1, 1, 1)
        assert check_equivalence(original, locked.unlocked_with(wrong)).refuted

    def test_error_pattern_is_cube_set_difference(self):
        original = paper_example_circuit()
        cubes = [(1, 0, 0, 1), (0, 1, 1, 0)]
        locked = lock_sfll_flex(
            original, num_cubes=2, cubes=cubes, optimize_netlist=False
        )
        # Key programming the cubes in SWAPPED order is equally correct:
        # restoration is an OR over slices.
        swapped = (0, 1, 1, 0, 1, 0, 0, 1)
        assert check_equivalence(
            original, locked.unlocked_with(swapped)
        ).proved

    def test_duplicate_cubes_rejected(self):
        with pytest.raises(LockingError):
            lock_sfll_flex(
                paper_example_circuit(),
                num_cubes=2,
                cubes=[(1, 0, 0, 1), (1, 0, 0, 1)],
            )

    def test_cube_count_mismatch_rejected(self):
        with pytest.raises(LockingError):
            lock_sfll_flex(
                paper_example_circuit(), num_cubes=2, cubes=[(1, 0, 0, 1)]
            )

    def test_random_cubes_are_distinct(self):
        locked = lock_sfll_flex(
            generate_random_circuit("f", 10, 2, 60, seed=1),
            num_cubes=3,
            cube_width=8,
            seed=5,
        )
        key = locked.reveal_correct_key()
        cubes = {key[i * 8 : (i + 1) * 8] for i in range(3)}
        assert len(cubes) == 3


class TestFallScopeBoundary:
    def test_single_cube_flex_falls_to_fall(self):
        original = paper_example_circuit()
        locked = lock_sfll_flex(original, num_cubes=1, cubes=[(1, 0, 0, 1)])
        result = fall_attack(locked.circuit, h=0)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == (1, 0, 0, 1)

    def test_two_cube_flex_resists_fall_analyses(self):
        # An OR of two polarity-conflicting cubes is neither unate nor a
        # Hamming shell: the paper's analyses must return ⊥ rather than
        # a wrong key.
        original = generate_random_circuit("fx", 12, 3, 80, seed=9)
        locked = lock_sfll_flex(
            original,
            num_cubes=2,
            cube_width=10,
            cubes=[
                (1, 0, 0, 1, 1, 0, 1, 0, 0, 1),
                (0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
            ],
        )
        result = fall_attack(locked.circuit, h=0, budget=Budget(30))
        assert result.status in (AttackStatus.FAILED, AttackStatus.TIMEOUT)
        assert result.key is None

    def test_key_confirmation_still_works_with_hints(self):
        # §V's division of labour: some other analysis produces a hint,
        # key confirmation certifies it — even where stage 1 fails.
        original = generate_random_circuit("fx2", 10, 2, 60, seed=10)
        cubes = [(1, 0, 0, 1, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1, 0, 1)]
        locked = lock_sfll_flex(original, num_cubes=2, cube_width=8, cubes=cubes)
        correct = locked.reveal_correct_key()
        wrong = tuple(1 - b for b in correct)
        oracle = IOOracle(original)
        result = key_confirmation(
            locked.circuit, oracle, [wrong, correct], budget=Budget(60)
        )
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved
