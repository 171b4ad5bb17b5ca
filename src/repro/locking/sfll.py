"""SFLL-HDh — Stripped-Functionality Logic Locking [Yasin et al., CCS 2017].

The generalization of TTLock the paper attacks (§II-B2, Figure 2c): the
functionality-stripped circuit inverts the original output for *every*
input whose protected-input projection lies at Hamming distance exactly
``h`` from the protected cube, and the restoration unit inverts it back
for every input at distance ``h`` from the *key*. The circuit computes
the original function iff key = protected cube, and a wrong key corrupts
up to ``2·C(m, h)`` patterns — exponentially more than TTLock, which is
the scheme's selling point (and what FALL exploits via Lemmas 2 and 3).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.opt import optimize
from repro.errors import LockingError
from repro.locking._common import (
    add_key_inputs,
    displace_target,
    resolve_cube,
    resolve_lock_site,
)
from repro.locking.base import LockedCircuit
from repro.locking.comparators import add_hamming_distance_equals


def lock_sfll_hd(
    circuit: Circuit,
    h: int,
    key_width: int | None = None,
    cube: Sequence[int] | None = None,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Lock ``circuit`` with SFLL-HDh.

    ``h = 0`` gives a circuit functionally identical to TTLock (but built
    from the Hamming-distance comparator, like real SFLL generators).
    """
    target, protected = resolve_lock_site(circuit, key_width)
    if not 0 <= h <= len(protected):
        raise LockingError(
            f"h={h} is out of range for key width {len(protected)}"
        )
    cube_bits = resolve_cube(cube, len(protected), seed)

    work, hidden = displace_target(circuit, target)
    work.name = f"{circuit.name}~sfll_hd{h}"

    # Functionality-stripped circuit: cube hard-coded, XORs folded.
    strip = add_hamming_distance_equals(
        work, protected, cube_bits, h, prefix="fsc"
    )
    fsc = work.fresh_name("fsc_out")
    work.add_gate(fsc, GateType.XOR, [hidden, strip])

    # Restoration unit: genuine XOR comparators against the key inputs.
    keys = add_key_inputs(work, len(protected))
    restore = add_hamming_distance_equals(work, protected, keys, h, prefix="fru")
    work.add_gate(target, GateType.XOR, [fsc, restore])
    work.replace_output(hidden, target)

    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme=f"sfll_hd{h}",
        key_names=tuple(keys),
        h=h,
        _correct_key=cube_bits,
    )
