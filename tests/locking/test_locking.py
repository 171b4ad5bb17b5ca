"""Tests for the locking schemes.

Core invariants, checked by CEC for every scheme:
- the correct key restores the original function exactly,
- wrong keys corrupt the function (for the stripped-functionality
  schemes, any wrong key is corrupting; Anti-SAT has an equivalence
  class of correct keys),
- key inputs are marked, ordered, and survive netlist optimization.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.library import PAPER_EXAMPLE_CUBE, paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_pattern
from repro.errors import LockingError
from repro.locking import (
    LockedCircuit,
    apply_key,
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)
from repro.locking.base import choose_protected_inputs, choose_target_output
from repro.utils.bitops import complement_bits
from tests.circuits import c17


def _hamming(a, b) -> int:
    return sum(x ^ y for x, y in zip(a, b))


def all_keys(width: int):
    return itertools.product((0, 1), repeat=width)


class TestTTLock:
    def test_correct_key_restores_function(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_EXAMPLE_CUBE)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    def test_every_wrong_key_corrupts(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=PAPER_EXAMPLE_CUBE)
        correct = locked.reveal_correct_key()
        for key in all_keys(4):
            if key == correct:
                continue
            result = check_equivalence(original, locked.unlocked_with(key))
            assert result.refuted, f"key {key} unexpectedly correct"

    def test_wrong_key_corrupts_exactly_two_cubes(self):
        # TTLock with wrong key K flips the protected cube AND the cube
        # equal to K (unless K == cube): output error rate is 2/2^n.
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1), optimize_netlist=False)
        wrong = (0, 0, 0, 0)
        mismatches = 0
        for pattern in all_keys(4):
            assignment = dict(zip("abcd", pattern))
            expected = simulate_pattern(original, assignment)["y"]
            assignment.update(locked.key_assignment(wrong))
            got = simulate_pattern(locked.circuit, assignment)["y"]
            mismatches += expected != got
        assert mismatches == 2

    def test_unoptimized_structure_matches_paper(self):
        # Figure 2b: stripped circuit + restoration unit, XORed into y.
        locked = lock_ttlock(
            paper_example_circuit(), cube=PAPER_EXAMPLE_CUBE,
            optimize_netlist=False,
        )
        assert locked.circuit.outputs == ("y",)
        assert locked.circuit.gate_type("y") is GateType.XOR
        assert locked.key_names == tuple(f"keyinput{i}" for i in range(4))

    def test_explicit_cube_becomes_key(self):
        locked = lock_ttlock(paper_example_circuit(), cube=(0, 1, 1, 0))
        assert locked.reveal_correct_key() == (0, 1, 1, 0)

    def test_cube_width_mismatch_rejected(self):
        with pytest.raises(LockingError):
            lock_ttlock(paper_example_circuit(), cube=(1, 0))

    def test_key_width_cap(self):
        circuit = generate_random_circuit("wide", 80, 4, 200, seed=1)
        locked = lock_ttlock(circuit)
        assert locked.key_width == 64  # paper's default cap

    def test_multi_output_circuit(self):
        original = c17()
        locked = lock_ttlock(original, cube=(1, 0, 1, 1, 0))
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved


class TestSfllHd:
    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_correct_key_restores_function(self, h):
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=h, cube=PAPER_EXAMPLE_CUBE)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    @pytest.mark.parametrize("h", [1, 2])
    def test_every_wrong_key_corrupts(self, h):
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=h, cube=PAPER_EXAMPLE_CUBE)
        correct = locked.reveal_correct_key()
        # At h == m/2 the strip function is complement-symmetric, so the
        # complement key is equally correct (paper §V complement
        # shortlists); it is not a "wrong" key.
        also_correct = {correct}
        if 2 * h == len(correct):
            also_correct.add(complement_bits(correct))
        for key in all_keys(4):
            if key in also_correct:
                continue
            result = check_equivalence(original, locked.unlocked_with(key))
            assert result.refuted, f"key {key} unexpectedly correct at h={h}"

    def test_complement_key_correct_at_half_m(self):
        # h == m/2: HD(K, X) = h iff HD(¬K, X) = h, so ¬cube unlocks too.
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=2, cube=PAPER_EXAMPLE_CUBE)
        complement = complement_bits(locked.reveal_correct_key())
        assert check_equivalence(
            original, locked.unlocked_with(complement)
        ).proved

    def test_hd0_equals_ttlock_function(self):
        original = paper_example_circuit()
        via_sfll = lock_sfll_hd(original, h=0, cube=PAPER_EXAMPLE_CUBE)
        via_ttlock = lock_ttlock(original, cube=PAPER_EXAMPLE_CUBE)
        # Same function of (inputs, keys): rename keys to match.
        left = via_sfll.circuit
        right = via_ttlock.circuit
        assert check_equivalence(left, right).proved

    def test_stripped_output_flips_hd_h_shell(self):
        # The FSC (key-independent part) differs from the original
        # exactly on the Hamming shell at distance h around the cube.
        h = 1
        original = paper_example_circuit()
        locked = lock_sfll_hd(
            original, h=h, cube=(1, 0, 0, 1), optimize_netlist=False
        )
        # Zero key != cube, pick the FSC by reading through the XOR: we
        # instead check the end-to-end property on the locked circuit
        # with key = cube: every input agrees with the original.
        assignment_keys = locked.key_assignment((1, 0, 0, 1))
        for pattern in all_keys(4):
            assignment = dict(zip("abcd", pattern))
            expected = simulate_pattern(original, assignment)["y"]
            assignment.update(assignment_keys)
            got = simulate_pattern(locked.circuit, assignment)["y"]
            assert expected == got

    def test_wrong_key_error_pattern_is_two_shells(self):
        # With wrong key K, errors occur where exactly one of
        # HD(x, cube) == h and HD(x, K) == h holds.
        h = 1
        cube = (1, 0, 0, 1)
        wrong = (1, 1, 0, 1)
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=h, cube=cube, optimize_netlist=False)
        for pattern in all_keys(4):
            assignment = dict(zip("abcd", pattern))
            expected = simulate_pattern(original, assignment)["y"]
            assignment.update(locked.key_assignment(wrong))
            got = simulate_pattern(locked.circuit, assignment)["y"]
            strip = _hamming(pattern, cube) == h
            restore = _hamming(pattern, wrong) == h
            assert (got != expected) == (strip ^ restore), pattern

    def test_paper_example_f_function(self):
        # Equation 1 of the paper: the SFLL-HD1 strip function of cube
        # (1,0,0,1) is true exactly on the four listed minterms.
        h = 1
        cube = (1, 0, 0, 1)
        expected_ones = {(0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 0)}
        ones = {
            pattern
            for pattern in all_keys(4)
            if _hamming(pattern, cube) == h
        }
        assert ones == expected_ones

    def test_out_of_range_h_rejected(self):
        with pytest.raises(LockingError):
            lock_sfll_hd(paper_example_circuit(), h=5)
        with pytest.raises(LockingError):
            lock_sfll_hd(paper_example_circuit(), h=-1)

    def test_larger_circuit_with_h(self):
        original = generate_random_circuit("mid", 16, 3, 90, seed=7)
        locked = lock_sfll_hd(original, h=2, key_width=12, seed=5)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved


class TestRandomXorLocking:
    def test_correct_key_restores_function(self):
        original = c17()
        locked = lock_random_xor(original, key_width=4, seed=3)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    def test_flipping_any_key_bit_corrupts(self):
        original = c17()
        locked = lock_random_xor(original, key_width=4, seed=3)
        correct = list(locked.reveal_correct_key())
        for index in range(4):
            wrong = list(correct)
            wrong[index] ^= 1
            result = check_equivalence(original, locked.unlocked_with(wrong))
            assert result.refuted

    def test_too_many_key_gates_rejected(self):
        with pytest.raises(LockingError):
            lock_random_xor(c17(), key_width=100)


class TestSarlock:
    def test_correct_key_restores_function(self):
        original = paper_example_circuit()
        locked = lock_sarlock(original, seed=3)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    def test_wrong_key_corrupts_exactly_one_pattern(self):
        original = paper_example_circuit()
        locked = lock_sarlock(original, seed=3, optimize_netlist=False)
        wrong = complement_bits(locked.reveal_correct_key())
        mismatches = []
        for pattern in all_keys(4):
            assignment = dict(zip("abcd", pattern))
            expected = simulate_pattern(original, assignment)["y"]
            assignment.update(locked.key_assignment(wrong))
            got = simulate_pattern(locked.circuit, assignment)["y"]
            if expected != got:
                mismatches.append(pattern)
        assert mismatches == [wrong]


class TestAntisat:
    def test_canonical_key_restores_function(self):
        original = paper_example_circuit()
        locked = lock_antisat(original, seed=3)
        unlocked = locked.unlocked_with(locked.reveal_correct_key())
        assert check_equivalence(original, unlocked).proved

    def test_equal_halves_are_all_correct(self):
        # Anti-SAT's correct-key class: any K1 == K2.
        original = paper_example_circuit()
        locked = lock_antisat(original, seed=3)
        key = (1, 0, 0, 1, 1, 0, 0, 1)
        assert check_equivalence(original, locked.unlocked_with(key)).proved

    def test_unequal_halves_corrupt(self):
        original = paper_example_circuit()
        locked = lock_antisat(original, seed=3)
        key = (1, 0, 0, 1, 1, 0, 0, 0)
        assert check_equivalence(original, locked.unlocked_with(key)).refuted


class TestLockedCircuitPlumbing:
    def test_key_names_marked_in_circuit(self):
        locked = lock_ttlock(paper_example_circuit())
        assert locked.circuit.key_inputs == locked.key_names

    def test_key_assignment_width_checked(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(LockingError):
            locked.key_assignment((1, 0))

    def test_mismatched_key_names_rejected(self):
        circuit = Circuit("x")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        with pytest.raises(LockingError):
            LockedCircuit(circuit=circuit, scheme="none", key_names=("k0",))

    def test_apply_key_rejects_non_key(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(LockingError):
            apply_key(locked.circuit, {"a": 1})

    def test_apply_key_rejects_unknown(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(LockingError):
            apply_key(locked.circuit, {"ghost": 1})

    def test_reveal_without_record_raises(self):
        circuit = Circuit("x")
        circuit.add_input("a")
        circuit.add_key_input("k0")
        circuit.add_gate("y", GateType.XOR, ["a", "k0"])
        circuit.add_output("y")
        locked = LockedCircuit(circuit=circuit, scheme="none", key_names=("k0",))
        with pytest.raises(LockingError):
            locked.reveal_correct_key()

    def test_choose_target_output_widest_support(self):
        assert choose_target_output(c17()) in ("G22", "G23")

    def test_choose_protected_inputs_errors(self):
        with pytest.raises(LockingError):
            choose_protected_inputs(c17(), 99)
        with pytest.raises(LockingError):
            choose_protected_inputs(c17(), 0)

    def test_locking_does_not_mutate_original(self):
        original = paper_example_circuit()
        before = set(original.nodes)
        lock_ttlock(original)
        lock_sfll_hd(original, h=1)
        lock_sarlock(original)
        assert set(original.nodes) == before


class TestAttackerDefenderSeparation:
    def test_attack_sources_never_touch_correct_key(self):
        """Attack code must not read LockedCircuit bookkeeping."""
        from pathlib import Path

        import repro.attacks as attacks_pkg

        root = Path(attacks_pkg.__file__).parent
        banned = ("reveal_correct_key", "_correct_key")
        for path in root.rglob("*.py"):
            text = path.read_text()
            for token in banned:
                assert token not in text, f"{path.name} references {token}"


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    # h < m/2 = 3: at h == m/2 the strip function is complement-symmetric
    # and the complement key is legitimately correct too (see the FALL
    # complement-shortlist discussion in §V of the paper).
    h=st.integers(min_value=0, max_value=2),
)
def test_sfll_correct_key_property(seed, h):
    """Property: for random circuits/cubes, key == cube unlocks exactly."""
    original = generate_random_circuit("prop", 8, 2, 40, seed=seed)
    locked = lock_sfll_hd(original, h=h, key_width=6, seed=seed + 1)
    unlocked = locked.unlocked_with(locked.reveal_correct_key())
    assert check_equivalence(original, unlocked).proved
    wrong = complement_bits(locked.reveal_correct_key())
    assert check_equivalence(original, locked.unlocked_with(wrong)).refuted
