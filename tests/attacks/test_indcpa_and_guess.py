"""Tests for the IND-CPA game (§VI-D) and the guess-then-confirm flow (§V)."""

from __future__ import annotations

import pytest

from repro.attacks import IOOracle, key_confirmation
from repro.attacks import guess
from repro.attacks.guess import guess_keys
from repro.attacks.indcpa import (
    Defender,
    adversary_advantage,
    equivalence_adversary,
    play_game,
)
from repro.attacks.results import AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_sfll_hd, lock_ttlock


class TestIndCpaGame:
    def test_adversary_always_wins(self):
        # §VI-D: "the adversary always wins this game for SFLL-HDh".
        transcript = play_game(h=1, seed=3)
        assert all(r.won for r in transcript)
        assert adversary_advantage(transcript) == pytest.approx(0.5)

    def test_defender_locks_chosen_circuit(self):
        defender = Defender(h=0, seed=9)
        circuit0 = generate_random_circuit("g0", 8, 2, 40, seed=1)
        circuit1 = generate_random_circuit("g1", 8, 2, 40, seed=2)
        locked = defender.challenge(circuit0, circuit1)
        assert locked.key_inputs  # it is actually locked
        guess = equivalence_adversary(locked, circuit0, circuit1)
        assert guess == defender.reveal_bit()

    def test_interface_mismatch_rejected(self):
        defender = Defender(seed=1)
        circuit0 = generate_random_circuit("g0", 8, 2, 40, seed=1)
        circuit1 = generate_random_circuit("g1", 6, 2, 30, seed=2)
        locked = defender.challenge(circuit0, circuit0.copy(name="twin"))
        with pytest.raises(AttackError):
            equivalence_adversary(locked, circuit0, circuit1)

    def test_empty_transcript_has_zero_advantage(self):
        assert adversary_advantage([]) == 0.0


class TestGuessKeys:
    def test_guesses_contain_correct_key(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        report = guess_keys(locked.circuit, h=0)
        assert (1, 0, 0, 1) in report.guesses
        assert report.nodes_examined > 0

    def test_guesses_on_sfll_hd1(self):
        original = generate_random_circuit("gk", 12, 3, 80, seed=4)
        locked = lock_sfll_hd(original, h=1, key_width=10, seed=4)
        report = guess_keys(locked.circuit, h=1)
        assert locked.reveal_correct_key() in report.guesses

    def test_respects_max_guesses(self, monkeypatch):
        monkeypatch.setattr(guess, "MAX_GUESSES", 1)
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        report = guess_keys(locked.circuit, h=0)
        assert len(report.guesses) <= 1

    def test_keyless_circuit_rejected(self):
        with pytest.raises(AttackError):
            guess_keys(paper_example_circuit(), h=0)

    def test_unlocked_style_circuit_yields_no_guesses(self):
        # A circuit with a key input but no comparator structure.
        from repro.circuit.circuit import Circuit
        from repro.circuit.gates import GateType

        circuit = Circuit("odd")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_key_input("k0")
        circuit.add_gate("t", GateType.AND, ["a", "b"])
        circuit.add_gate("y", GateType.AND, ["t", "k0"])
        circuit.add_output("y")
        report = guess_keys(circuit, h=0)
        assert report.guesses == []


class TestGuessThenConfirm:
    def test_confirmation_converts_guess_to_key(self):
        # The §V workflow: unverified guesses + key confirmation.
        original = generate_random_circuit("gc", 12, 3, 80, seed=5)
        locked = lock_sfll_hd(original, h=1, key_width=10, seed=5)
        report = guess_keys(locked.circuit, h=1)
        assert report.guesses
        oracle = IOOracle(original)
        result = key_confirmation(locked.circuit, oracle, report.guesses)
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_confirmation_rejects_pure_noise_guesses(self):
        original = generate_random_circuit("gc2", 10, 2, 60, seed=6)
        locked = lock_sfll_hd(original, h=1, key_width=8, seed=6)
        noise = [(0, 0, 1, 1, 0, 0, 1, 1), (1, 1, 1, 1, 0, 0, 0, 0)]
        correct = locked.reveal_correct_key()
        noise = [key for key in noise if key != correct]
        oracle = IOOracle(original)
        result = key_confirmation(locked.circuit, oracle, noise)
        assert result.status is AttackStatus.FAILED
