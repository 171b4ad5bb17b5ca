"""The IND-CPA-style distinguishing game of the paper's discussion (§VI-D).

The paper argues that logic locking lacks cryptographic notions of
security and sketches an indistinguishability game adapted from IND-CPA:

    The defender initially picks two keys K1c and K2c, and a bit
    b ∈ {0, 1}. Each round, the adversary provides two different
    circuits; the defender locks one of them with Kbc. The adversary
    wins if they can guess which of the two circuits was locked with
    non-negligible advantage over guessing.

"It is easy to see that the adversary always wins this game for
SFLL-HDh as the original circuit is largely unchanged by locking ... the
adversary can easily win the game with an algorithm for circuit
equivalence." This module implements the game and that winning
adversary, so the claim is checkable rather than rhetorical. It is not
a registered attack: the game locks its own circuits and has no input
netlist to attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.circuit import Circuit
from repro.errors import AttackError
from repro.locking.base import LockedCircuit
from repro.locking.sfll import lock_sfll_hd

#: Rounds per game, and the (inputs, outputs, gates) of each round's
#: fresh random circuits.
GAME_ROUNDS = 8
GAME_CIRCUIT_SIZE = (10, 3, 70)


@dataclass
class GameRound:
    """One round's transcript: what the adversary saw and guessed."""

    locked: Circuit
    truth: int
    guess: int

    @property
    def won(self) -> bool:
        return self.guess == self.truth


class Defender:
    """The game's challenger: locks one of two submitted circuits."""

    def __init__(self, h: int = 1, seed: int = 0):
        self._rng = random.Random(seed)
        self._h = h
        self._secret_bit = self._rng.getrandbits(1)

    def challenge(self, circuit0: Circuit, circuit1: Circuit) -> Circuit:
        """Lock circuit_b with the secret b; return the locked netlist."""
        chosen = circuit1 if self._secret_bit else circuit0
        locked: LockedCircuit = lock_sfll_hd(
            chosen,
            h=self._h,
            seed=self._rng.getrandbits(30),
        )
        return locked.circuit

    def reveal_bit(self) -> int:
        """Defender-side accessor for scoring the game."""
        return self._secret_bit


def equivalence_adversary(
    locked: Circuit, circuit0: Circuit, circuit1: Circuit
) -> int:
    """The paper's winning strategy: guess by key-projected equivalence.

    SFLL leaves the original function recoverable from the locked
    netlist up to the error shells of the stripped cube. Rather than
    reverse the locking, it suffices to check which candidate circuit
    the locked netlist is *almost* equivalent to: plug an arbitrary key
    into the locked netlist and compare against both candidates with
    the locking corruption bounded away from 1/2 — here, concretely, by
    counting mismatches on a random sample and picking the candidate
    with fewer mismatches (the corruption of SFLL is ~2·C(m,h)/2^m,
    vanishing, while a different circuit disagrees on a constant
    fraction).
    """
    from repro.circuit.compiled import compile_circuit

    if set(circuit0.circuit_inputs) != set(circuit1.circuit_inputs):
        raise AttackError("game circuits must share their input interface")
    patterns = 2048
    rng = random.Random(99)
    values = {
        name: rng.getrandbits(patterns)
        for name in locked.inputs  # includes arbitrary key values
    }
    locked_view = compile_circuit(locked).eval_outputs_sliced(
        values, width=patterns
    )
    mismatches = []
    for candidate in (circuit0, circuit1):
        candidate_view = compile_circuit(candidate).eval_outputs_sliced(
            values, width=patterns
        )
        bits = 0
        for word_locked, word_candidate in zip(locked_view, candidate_view):
            bits |= word_locked ^ word_candidate
        mismatches.append(bits.bit_count())
    return 0 if mismatches[0] <= mismatches[1] else 1


def play_game(h: int = 1, seed: int = 0) -> list[GameRound]:
    """Play :data:`GAME_ROUNDS` rounds with fresh random circuit pairs."""
    from repro.circuit.random_circuits import generate_random_circuit

    rng = random.Random(seed)
    transcript: list[GameRound] = []
    num_inputs, num_outputs, num_gates = GAME_CIRCUIT_SIZE
    for round_index in range(GAME_ROUNDS):
        defender = Defender(h=h, seed=rng.getrandbits(30))
        circuit0 = generate_random_circuit(
            f"g{round_index}a", num_inputs, num_outputs, num_gates,
            seed=rng.getrandbits(30),
        )
        circuit1 = generate_random_circuit(
            f"g{round_index}b", num_inputs, num_outputs, num_gates,
            seed=rng.getrandbits(30),
        )
        locked = defender.challenge(circuit0, circuit1)
        guess = equivalence_adversary(locked, circuit0, circuit1)
        transcript.append(
            GameRound(locked=locked, truth=defender.reveal_bit(), guess=guess)
        )
    return transcript


def adversary_advantage(transcript: list[GameRound]) -> float:
    """Win rate minus the 1/2 guessing baseline."""
    if not transcript:
        return 0.0
    wins = sum(1 for r in transcript if r.won)
    return wins / len(transcript) - 0.5
