"""The paper's worked example, stage by stage (§II-B, §III, §IV).

    python examples/paper_example.py

Reproduces the walk-through interspersed in the paper's text:

1. Figure 2a — the original circuit y = ab + bc + ca + d;
2. Figure 2b — TTLock with protected cube a·¬b·¬c·d;
3. Figure 2c — SFLL-HD1 (Equation 1's strip function F);
4. Figure 3  — the strash-optimized netlist the adversary actually sees;
5. §III-A    — comparator identification on that netlist;
6. §III-B    — support-set matching;
7. §IV       — AnalyzeUnateness / SlidingWindow recover the cube;
8. §IV-C     — equivalence-check confirmation;
9. §V        — key confirmation on a two-key shortlist, and ⊥ on an
               all-wrong one.

It exits 1 unless the confirmed key unlocks the circuit (CEC) and the
all-wrong shortlist comes back ⊥.
"""

from repro.attacks.fall.comparators import (
    find_comparators,
    pairing_from_comparators,
)
from repro.attacks.fall.equivalence import confirm_cube
from repro.attacks.fall.sliding_window import sliding_window
from repro.attacks.fall.support_match import candidate_strip_nodes
from repro.attacks.fall.unateness import analyze_unateness
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.analysis import extract_cone, support, support_table
from repro.circuit.bench_io import write_bench
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.locking import lock_sfll_hd, lock_ttlock
from repro.utils.bitops import complement_bits

CUBE = (1, 0, 0, 1)


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> int:
    banner("Figure 2a: original circuit")
    original = paper_example_circuit()
    print(write_bench(original))

    banner("Figure 2b: TTLock, protected cube a·¬b·¬c·d")
    ttlock = lock_ttlock(original, cube=CUBE, optimize_netlist=False)
    print(f"{ttlock.circuit} — key inputs {ttlock.key_names}")

    banner("Figure 3: the strash-optimized netlist the adversary sees")
    ttlock_opt = lock_ttlock(original, cube=CUBE)  # optimized by default
    print(write_bench(ttlock_opt.circuit))

    banner("§III-A: comparator identification")
    supports = support_table(ttlock_opt.circuit)
    comparators = find_comparators(ttlock_opt.circuit, supports)
    for comp in comparators:
        kind = "XNOR" if comp.is_xnor else "XOR"
        print(f"  node {comp.node}: {kind}({comp.circuit_input}, {comp.key_input})")
    pairing = pairing_from_comparators(comparators)
    print(f"  pairing: {pairing}")

    banner("§III-B: support-set matching")
    candidates = candidate_strip_nodes(ttlock_opt.circuit, comparators, supports)
    for node in candidates:
        print(f"  candidate {node}: support {sorted(support(ttlock_opt.circuit, node))}")

    banner("§IV-B1: AnalyzeUnateness on each candidate")
    confirmed = None
    for node in candidates:
        cone = extract_cone(ttlock_opt.circuit, node)
        cube = analyze_unateness(cone)
        print(f"  {node}: {'not unate (rejected)' if cube is None else cube}")
        if cube is not None and confirm_cube(cone, cube, 0):
            print(f"    §IV-C equivalence check: CONFIRMED as strip_0({cube})")
            confirmed = cube
    assert confirmed is not None
    key = tuple(confirmed[x] for x in "abcd")
    print(f"  recovered key: {key} (paper: (1, 0, 0, 1))")

    banner("Figure 2c: SFLL-HD1 and the SlidingWindow analysis")
    sfll = lock_sfll_hd(original, h=1, cube=CUBE)
    supports = support_table(sfll.circuit)
    comparators = find_comparators(sfll.circuit, supports)
    candidates = candidate_strip_nodes(sfll.circuit, comparators, supports)
    for node in candidates:
        cone = extract_cone(sfll.circuit, node)
        cube = sliding_window(cone, 1)
        if cube is not None and confirm_cube(cone, cube, 1):
            print(f"  {node}: SlidingWindow recovered {cube}")
            break

    banner("§V: key confirmation on a two-key shortlist")
    oracle = IOOracle(original)
    shortlist = [complement_bits(CUBE), CUBE]
    result = key_confirmation(sfll.circuit, oracle, shortlist)
    print(f"  shortlist: {[''.join(map(str, k)) for k in shortlist]}")
    print(f"  {result.summary()}")
    unlocks = result.succeeded and bool(
        check_equivalence(original, sfll.unlocked_with(result.key)).proved
    )
    print(f"  unlocks the circuit: {unlocks}")

    wrong = [(0, 0, 0, 0), (1, 1, 1, 1)]
    verdict = key_confirmation(sfll.circuit, IOOracle(original), wrong)
    print(f"  all-wrong shortlist -> {verdict.status.value} (Lemma 4's ⊥)")
    return 0 if unlocks and verdict.status is AttackStatus.FAILED else 1


if __name__ == "__main__":
    raise SystemExit(main())
