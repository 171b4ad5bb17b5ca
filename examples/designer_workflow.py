"""A defender's workflow: lock, export, activate, assess corruption.

    python examples/designer_workflow.py

Shows the library from the design-house side rather than the attacker
side: lock a netlist, write the locked design to ``.bench`` (what goes
to the foundry), activate a fabricated part by burning the key, and
quantify how badly wrong keys corrupt outputs — SFLL's selling point is
that the corruption of a wrong key is much larger than TTLock's
2-patterns-in-2^n (§II-B2).
"""

import random
import tempfile
from pathlib import Path

from repro.circuit.bench_io import read_bench, save_bench
from repro.circuit.equivalence import check_equivalence
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate
from repro.locking import lock_sfll_hd, lock_ttlock


def error_rate(locked, key, original, patterns: int = 4096) -> float:
    """Fraction of sampled inputs where the keyed circuit mismatches."""
    rng = random.Random(123)
    values = {name: rng.getrandbits(patterns) for name in original.inputs}
    golden = simulate(original, values, width=patterns)
    keyed = dict(values)
    keyed.update(
        {name: -bit & ((1 << patterns) - 1)
         for name, bit in locked.key_assignment(key).items()}
    )
    view = simulate(locked.circuit, keyed, width=patterns)
    mismatched = 0
    for output in original.outputs:
        mismatched |= golden[output] ^ view[output]
    return mismatched.bit_count() / patterns


def main() -> None:
    original = generate_random_circuit("ip_core", 12, 4, 150, seed=77)
    print(f"IP core: {original}")

    workdir = Path(tempfile.mkdtemp(prefix="fall-repro-"))
    for scheme_name, locker, kwargs in (
        ("ttlock", lock_ttlock, {}),
        ("sfll-hd2", lock_sfll_hd, {"h": 2}),
    ):
        locked = locker(original, key_width=12, seed=5, **kwargs)
        bench_path = workdir / f"{scheme_name}.bench"
        save_bench(locked.circuit, bench_path)
        print(f"\n[{scheme_name}] wrote foundry netlist: {bench_path}")

        # Round-trip what the foundry receives; key markings survive.
        foundry_view = read_bench(bench_path)
        assert foundry_view.key_inputs == locked.key_names

        # Activation: burn the correct key into tamper-proof memory.
        correct = locked.reveal_correct_key()
        activated = locked.unlocked_with(correct)
        ok = check_equivalence(original, activated).proved
        print(f"  activation with correct key: equivalent = {ok}")

        # Output corruption under wrong keys (mean over a few keys).
        rng = random.Random(9)
        rates = []
        for _ in range(5):
            wrong = tuple(rng.getrandbits(1) for _ in correct)
            if wrong == correct:
                continue
            rates.append(error_rate(locked, wrong, original))
        mean_rate = sum(rates) / len(rates)
        print(f"  mean wrong-key output error rate: {mean_rate:.4%}")
        print("  (TTLock corrupts ~2 patterns; SFLL-HDh corrupts "
              "~2*C(m,h) patterns — higher is better for the defender)")


if __name__ == "__main__":
    main()
