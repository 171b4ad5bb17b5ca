"""SARLock [Yasin et al., HOST 2016].

A SAT-attack-resistant baseline (paper §I): the output is flipped when
the (protected) inputs equal the key, masked so the correct key never
flips. Each wrong key corrupts exactly one input pattern, forcing the
SAT attack through exponentially many distinguishing inputs — but the
scheme falls to Double DIP / AppSAT / removal attacks, all of which this
repo also implements.

Flip condition: ``(X == K) ∧ (K != K*)`` with the correct key ``K*``
hard-coded in the mask (which is exactly why removal-style analyses
break it).
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.opt import optimize
from repro.locking._common import (
    add_key_inputs,
    displace_target,
    resolve_cube,
    resolve_lock_site,
)
from repro.locking.base import LockedCircuit
from repro.locking.comparators import add_cube_detector, add_equality_comparator


def lock_sarlock(
    circuit: Circuit,
    key_width: int | None = None,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Lock ``circuit`` with SARLock; ``seed`` draws the correct key."""
    target, protected = resolve_lock_site(circuit, key_width)
    key_bits = resolve_cube(None, len(protected), seed)

    work, hidden = displace_target(circuit, target)
    work.name = f"{circuit.name}~sarlock"

    keys = add_key_inputs(work, len(protected))
    # X == K comparator.
    match = add_equality_comparator(work, protected, keys, prefix="sar_eq")
    # K == K* detector (mask); flip is suppressed for the correct key.
    key_is_correct = add_cube_detector(work, keys, key_bits, prefix="sar_mask")
    not_correct = work.fresh_name("sar_nmask")
    work.add_gate(not_correct, GateType.NOT, [key_is_correct])
    flip = work.fresh_name("sar_flip")
    work.add_gate(flip, GateType.AND, [match, not_correct])
    work.add_gate(target, GateType.XOR, [hidden, flip])
    work.replace_output(hidden, target)

    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme="sarlock",
        key_names=tuple(keys),
        _correct_key=key_bits,
    )
