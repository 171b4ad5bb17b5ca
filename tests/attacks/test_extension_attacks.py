"""Tests for the prior-work attacks: SPS, Double DIP, AppSAT.

These reproduce the attack/defense history of the paper's §I: SPS
breaks Anti-SAT structurally; Double DIP and AppSAT defeat SARLock's
point corruption; none of them needs to work on SFLL (that is FALL's
job).
"""

from __future__ import annotations

import pytest

from repro.attacks.cegis import appsat_attack, double_dip_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.attacks.sps import estimate_signal_probabilities, sps_attack
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_pattern
from repro.errors import AttackError
from repro.locking import (
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
)
from repro.utils.timer import Budget


class TestSignalProbabilities:
    def test_constant_like_nodes_are_skewed(self):
        # Wide enough key blocks that P[flip] = 2^-m (1 - 2^-m) is tiny
        # even with the key inputs randomized (the attacker's view).
        original = generate_random_circuit("sk", 10, 2, 60, seed=1)
        locked = lock_antisat(original, key_width=10, seed=1,
                              optimize_netlist=False)
        probabilities = estimate_signal_probabilities(locked.circuit)
        flip = probabilities[_flip_node(locked.circuit)]
        assert flip.probability < 0.05
        assert flip.skew > 0.45

    def test_probabilities_in_unit_interval(self):
        circuit = generate_random_circuit("p", 8, 2, 40, seed=3)
        probabilities = estimate_signal_probabilities(circuit, patterns=256)
        assert all(0.0 <= e.probability <= 1.0 for e in probabilities.values())

    def test_majority_value(self):
        original = paper_example_circuit()
        locked = lock_antisat(original, optimize_netlist=False)
        probabilities = estimate_signal_probabilities(locked.circuit)
        assert probabilities[_flip_node(locked.circuit)].majority_value == 0


class TestSpsAttack:
    def test_breaks_unoptimized_antisat(self):
        original = generate_random_circuit("a", 10, 3, 60, seed=5)
        locked = lock_antisat(original, key_width=8, seed=5,
                              optimize_netlist=False)
        result = sps_attack(locked.circuit)
        assert result.status is AttackStatus.SUCCESS
        rebuilt = result.details["reconstructed"]
        assert not rebuilt.key_inputs
        assert check_equivalence(original, rebuilt).proved

    def test_breaks_strashed_antisat(self):
        # After strash the XOR output stage is gone; the constant-forcing
        # strategy must still find and neutralize the flip signal.
        original = generate_random_circuit("a2", 10, 3, 60, seed=6)
        locked = lock_antisat(original, key_width=8, seed=6)
        result = sps_attack(locked.circuit)
        assert result.status is AttackStatus.SUCCESS
        rebuilt = result.details["reconstructed"]
        assert check_equivalence(original, rebuilt).proved

    def test_breaks_sarlock(self):
        # SARLock's flip is also a point function: same skew weakness.
        original = generate_random_circuit("s", 10, 3, 60, seed=7)
        locked = lock_sarlock(original, key_width=10, seed=7,
                              optimize_netlist=False)
        result = sps_attack(locked.circuit)
        assert result.status is AttackStatus.SUCCESS
        rebuilt = result.details["reconstructed"]
        assert check_equivalence(original, rebuilt).proved

    def test_does_not_break_plain_xor_locking(self):
        # RLL key gates are 50/50 signals: nothing skewed to remove.
        original = generate_random_circuit("r", 10, 3, 60, seed=8)
        locked = lock_random_xor(original, key_width=6, seed=8)
        result = sps_attack(locked.circuit)
        if result.status is AttackStatus.SUCCESS:
            rebuilt = result.details["reconstructed"]
            assert not check_equivalence(original, rebuilt).proved
        else:
            assert result.status is AttackStatus.FAILED

    def test_keyless_circuit_rejected(self):
        with pytest.raises(AttackError):
            sps_attack(paper_example_circuit())


class TestDoubleDip:
    def test_recovers_rll_key(self):
        original = generate_random_circuit("d", 10, 3, 60, seed=9)
        locked = lock_random_xor(original, key_width=6, seed=9)
        result = double_dip_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_sarlock_key_is_approximately_correct(self):
        # After no 2-DIPs remain, the returned key errs on at most one
        # pattern of a pure-SARLock circuit — the Double DIP guarantee.
        original = generate_random_circuit("d2", 8, 2, 50, seed=10)
        locked = lock_sarlock(original, key_width=8, seed=10)
        result = double_dip_attack(
            locked.circuit, IOOracle(original), budget=Budget(60)
        )
        assert result.status is AttackStatus.SUCCESS
        errors = _count_key_errors(original, locked, result.key)
        assert errors <= 1


class TestAppSat:
    def test_exact_success_on_rll(self):
        original = generate_random_circuit("ap", 10, 3, 60, seed=11)
        locked = lock_random_xor(original, key_width=6, seed=11)
        result = appsat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_approximate_success_on_sarlock(self):
        original = generate_random_circuit("ap2", 10, 2, 60, seed=12)
        locked = lock_sarlock(original, key_width=10, seed=12)
        result = appsat_attack(
            locked.circuit, IOOracle(original), budget=Budget(60)
        )
        assert result.status is AttackStatus.SUCCESS
        errors = _count_key_errors(original, locked, result.key)
        # Approximate correctness: at most a couple of corrupted patterns.
        assert errors <= 4


def _flip_node(circuit) -> str:
    """The Anti-SAT flip node (named ``as_flip$<n>`` by the locker)."""
    matches = [n for n in circuit.nodes if n.startswith("as_flip")]
    assert matches, "no Anti-SAT flip node in circuit"
    return matches[0]


def _count_key_errors(original, locked, key) -> int:
    """Exhaustively count input patterns where the keyed circuit errs."""
    inputs = original.inputs
    assignment_keys = locked.key_assignment(key)
    errors = 0
    for pattern in range(1 << len(inputs)):
        assignment = {
            name: (pattern >> i) & 1 for i, name in enumerate(inputs)
        }
        golden = simulate_pattern(original, assignment)
        assignment.update(assignment_keys)
        view = simulate_pattern(locked.circuit, assignment)
        if any(view[o] != golden[o] for o in original.outputs):
            errors += 1
    return errors
