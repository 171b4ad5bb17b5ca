"""Quickstart: lock a circuit with SFLL-HD1, break it with FALL.

Runs in a few seconds:

    python examples/quickstart.py

Builds the paper's running example circuit (y = ab + bc + ca + d,
Figure 2a), locks it with SFLL-HD1 and protected cube a·¬b·¬c·d
(Figure 2c), then runs the oracle-less FALL attack and verifies the
recovered key unlocks the circuit.
"""

from repro.attacks.fall.pipeline import fall_attack
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.locking import lock_sfll_hd

CUBE = (1, 0, 0, 1)  # the protected cube a ∧ ¬b ∧ ¬c ∧ d


def main() -> None:
    original = paper_example_circuit()
    print(f"original circuit : {original}")

    locked = lock_sfll_hd(original, h=1, cube=CUBE)
    print(f"locked (SFLL-HD1): {locked.circuit}")
    print(f"key inputs       : {', '.join(locked.key_names)}")

    # The adversary sees only the locked netlist (and knows h).
    result = fall_attack(locked.circuit, h=1)
    print(f"attack outcome   : {result.summary()}")
    assert result.key is not None, "FALL failed on the paper example!"

    # Defender-side verification: does the recovered key unlock?
    unlocked = locked.unlocked_with(result.key)
    verdict = check_equivalence(original, unlocked)
    print(f"key unlocks      : {verdict.proved}")
    print(f"oracle queries   : {result.oracle_queries} (oracle-less attack)")


if __name__ == "__main__":
    main()
