"""The logic-locking attack landscape the paper's introduction surveys.

    python examples/attack_landscape.py

One mid-size circuit, four locking schemes, four attacks — reproducing
the history the paper tells in §I:

- random XOR locking (EPIC lineage) falls to the plain SAT attack;
- SARLock resists the SAT attack but falls to Double DIP / AppSAT;
- Anti-SAT resists the SAT attack but falls to SPS (a removal attack);
- SFLL resists all of the above — and falls to FALL.
"""

import random

from repro.attacks.cegis import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.fall.pipeline import fall_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.attacks.sps import sps_attack
from repro.circuit.equivalence import check_equivalence
from repro.circuit.random_circuits import generate_random_circuit
from repro.locking import (
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
)
from repro.utils.timer import Budget

TIME_LIMIT = 30.0
SAT_ITER_CAP = 64


def verdict(original, locked, result) -> str:
    if result.status is AttackStatus.SUCCESS and result.key is not None:
        unlocked = locked.unlocked_with(result.key)
        if check_equivalence(original, unlocked).proved:
            return f"BROKEN ({result.attack}, {result.elapsed_seconds:.1f}s)"
        return f"wrong key ({result.attack})"
    if result.status is AttackStatus.SUCCESS:
        # Removal attacks return a reconstruction instead of a key.
        rebuilt = result.details.get("reconstructed")
        if rebuilt is not None:
            if check_equivalence(original, rebuilt).proved:
                return (
                    f"BROKEN ({result.attack}, removal, "
                    f"{result.elapsed_seconds:.1f}s)"
                )
            return f"resisted ({result.attack}: reconstruction not equivalent)"
    return f"resisted ({result.attack}: {result.status.value})"


def approx_verdict(original, locked, result) -> str:
    """Score an attack whose guarantee is approximate correctness."""
    if result.status is not AttackStatus.SUCCESS or result.key is None:
        return f"resisted ({result.attack}: {result.status.value})"
    from repro.circuit.simulate import simulate

    rng = random.Random(5)
    patterns = 4096
    values = {n: rng.getrandbits(patterns) for n in original.inputs}
    golden = simulate(original, values, width=patterns)
    keyed = dict(values)
    mask = (1 << patterns) - 1
    for name, bit in locked.key_assignment(result.key).items():
        keyed[name] = mask if bit else 0
    view = simulate(locked.circuit, keyed, width=patterns)
    mismatches = 0
    for out in original.outputs:
        mismatches |= golden[out] ^ view[out]
    rate = mismatches.bit_count() / patterns
    return (
        f"BROKEN approximately ({result.attack}, sampled error rate "
        f"{rate:.3%})"
    )


def main() -> None:
    original = generate_random_circuit("landscape", 14, 4, 120, seed=99)
    print(f"victim circuit: {original}\n")

    print("-- random XOR/XNOR locking (EPIC lineage) --")
    rll = lock_random_xor(original, key_width=10, seed=1)
    result = sat_attack(rll.circuit, IOOracle(original), budget=Budget(TIME_LIMIT))
    print("  SAT attack:", verdict(original, rll, result))

    print("-- SARLock (SAT-attack resistant) --")
    sar = lock_sarlock(original, key_width=14, seed=2)
    result = sat_attack(
        sar.circuit, IOOracle(original),
        budget=Budget(TIME_LIMIT), max_iterations=SAT_ITER_CAP,
    )
    print("  SAT attack:", verdict(original, sar, result))
    result = double_dip_attack(
        sar.circuit, IOOracle(original),
        budget=Budget(TIME_LIMIT), max_iterations=SAT_ITER_CAP,
    )
    # Double DIP's guarantee on point-corruption schemes is approximate
    # correctness (at most one corrupted pattern), so score it that way.
    print("  Double DIP:", approx_verdict(original, sar, result))
    result = appsat_attack(
        sar.circuit, IOOracle(original), budget=Budget(TIME_LIMIT)
    )
    approx = " (approximate)" if result.details.get("approximate") else ""
    print(f"  AppSAT    : {result.status.value}{approx}, "
          f"{result.oracle_queries} queries")

    print("-- Anti-SAT (SAT-attack resistant) --")
    anti = lock_antisat(original, key_width=12, seed=3, optimize_netlist=False)
    result = sat_attack(
        anti.circuit, IOOracle(original),
        budget=Budget(TIME_LIMIT), max_iterations=SAT_ITER_CAP,
    )
    print("  SAT attack:", verdict(original, anti, result))
    result = sps_attack(anti.circuit)
    print("  SPS       :", verdict(original, anti, result))

    print("-- SFLL-HD1 (resistant to all of the above) --")
    sfll = lock_sfll_hd(original, h=1, key_width=12, seed=4)
    result = sat_attack(
        sfll.circuit, IOOracle(original),
        budget=Budget(TIME_LIMIT), max_iterations=SAT_ITER_CAP,
    )
    print("  SAT attack:", verdict(original, sfll, result))
    print("    (note: SFLL's SAT resilience scales as 2^m / C(m,h); at "
          "this toy key width the SAT attack can still win — run the "
          "Figure 5 harness for the scaled behaviour)")
    result = sps_attack(sfll.circuit)
    print("  SPS       :", verdict(original, sfll, result))
    result = fall_attack(sfll.circuit, h=1, oracle=IOOracle(original),
                         budget=Budget(TIME_LIMIT))
    print("  FALL      :", verdict(original, sfll, result))


if __name__ == "__main__":
    main()
