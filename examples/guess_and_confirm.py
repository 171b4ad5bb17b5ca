"""Guess-then-confirm: the paper's §V workflow for unverified key hints.

    python examples/guess_and_confirm.py

The paper motivates key confirmation with attacks like SURF that
produce *likely* keys without a correctness guarantee: "key confirmation
... can convert a high-probability guess into a correct guess". This
example runs a fast heuristic guesser (FALL's structural stages without
the equivalence-checking confirmation), deliberately salts the guess
list with noise, and lets key confirmation pick out the one correct key
— or report ⊥ when every guess is wrong (Lemma 4's second clause).
It exits 1 unless the confirmed key unlocks the circuit (CEC) and the
all-wrong shortlist comes back ⊥.
"""

import random

from repro.attacks.guess import guess_keys
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.random_circuits import generate_random_circuit
from repro.locking import lock_sfll_hd


def main() -> int:
    original = generate_random_circuit("design", 14, 4, 120, seed=21)
    locked = lock_sfll_hd(original, h=1, key_width=12, seed=21)
    print(f"victim: {locked.circuit} (SFLL-HD1, 12-bit key)")

    report = guess_keys(locked.circuit, h=1)
    print(f"\nguesser examined {report.nodes_examined} candidate nodes")
    for guess in report.guesses:
        print(f"  guess: {''.join(map(str, guess))}  (unverified)")

    # Salt the shortlist with wrong keys, as an imperfect ML guesser would.
    rng = random.Random(7)
    shortlist = list(report.guesses)
    while len(shortlist) < 5:
        noise = tuple(rng.getrandbits(1) for _ in range(12))
        if noise not in shortlist:
            shortlist.append(noise)
    print(f"\nshortlist of {len(shortlist)} keys handed to key confirmation")

    oracle = IOOracle(original)
    result = key_confirmation(locked.circuit, oracle, shortlist)
    print(f"confirmation: {result.summary()}")
    print(f"verification level: {result.details['verification']}")

    unlocks = result.succeeded and bool(
        check_equivalence(original, locked.unlocked_with(result.key)).proved
    )
    print(f"recovered key unlocks: {unlocks}")

    # And the ⊥ case: all-wrong shortlist.
    wrong_only = [key for key in shortlist if key != result.key][:3]
    verdict = key_confirmation(locked.circuit, IOOracle(original), wrong_only)
    print(f"\nall-wrong shortlist -> {verdict.status.value} (Lemma 4's ⊥)")
    return 0 if unlocks and verdict.status is AttackStatus.FAILED else 1


if __name__ == "__main__":
    raise SystemExit(main())
