"""Tests for the I/O oracle and the SAT attack baseline."""

from __future__ import annotations

import pytest

from repro.attacks.cegis import sat_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.library import c17, paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_random_xor, lock_sarlock, lock_sfll_hd, lock_ttlock


class TestOracle:
    def test_query_counts(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query_count == 0
        oracle.query({"a": 1, "b": 0, "c": 0, "d": 1})
        oracle.query({"a": 0, "b": 0, "c": 0, "d": 0})
        assert oracle.query_count == 2

    def test_query_values(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query({"a": 1, "b": 1, "c": 0, "d": 0}) == {"y": 1}
        assert oracle.query({"a": 0, "b": 0, "c": 0, "d": 0}) == {"y": 0}

    def test_query_bits_positional(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query_bits((1, 1, 0, 0)) == (1,)

    def test_missing_input_rejected(self):
        oracle = IOOracle(paper_example_circuit())
        with pytest.raises(AttackError):
            oracle.query({"a": 1})

    def test_wrong_arity_rejected(self):
        oracle = IOOracle(paper_example_circuit())
        with pytest.raises(AttackError):
            oracle.query_bits((1, 0))

    def test_locked_circuit_rejected(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(AttackError):
            IOOracle(locked.circuit)


class TestSatAttack:
    def test_recovers_ttlock_key_on_example(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        assert result.key == (1, 0, 0, 1)

    def test_recovers_rll_key(self):
        original = c17()
        locked = lock_random_xor(original, key_width=4, seed=2)
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_recovered_key_unlocks_random_circuit(self):
        original = generate_random_circuit("t", 10, 3, 60, seed=4)
        locked = lock_random_xor(original, key_width=8, seed=4)
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_key_equivalence_class_on_sfll(self):
        # The SAT attack may return any key in the correct equivalence
        # class; for SFLL only the protected cube unlocks, so on a small
        # instance it must find exactly that.
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        assert result.key == (1, 0, 0, 1)

    def test_sarlock_needs_many_iterations(self):
        # SARLock's point corruption forces ~2^m oracle queries; with a
        # small iteration cap the attack must time out — this is the
        # "SAT resilience" the paper's Figure 5 shows.
        original = generate_random_circuit("s", 12, 2, 60, seed=9)
        locked = lock_sarlock(original, key_width=12, seed=9)
        result = sat_attack(
            locked.circuit, IOOracle(original), max_iterations=16
        )
        assert result.status is AttackStatus.TIMEOUT
        assert result.iterations == 16

    def test_query_count_equals_iterations(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 1, 1, 1))
        oracle = IOOracle(original)
        result = sat_attack(locked.circuit, oracle)
        assert result.oracle_queries == result.iterations
        assert oracle.query_count == result.iterations

    def test_multi_output_locked_circuit(self):
        original = c17()
        locked = lock_ttlock(original, cube=(0, 1, 1, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved


class TestAttackResultPlumbing:
    def test_key_as_assignment(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assignment = result.key_as_assignment()
        assert assignment == dict(zip(locked.key_names, (1, 0, 0, 1)))

    def test_key_as_assignment_requires_key(self):
        from repro.attacks.results import AttackResult

        result = AttackResult(attack="x", status=AttackStatus.FAILED)
        with pytest.raises(ValueError):
            result.key_as_assignment()

    def test_summary_format(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        text = result.summary()
        assert "sat-attack" in text
        assert "key=1001" in text
