"""TTLock [Yasin et al., GLSVLSI 2017].

Stripped-functionality locking for a single protected cube (paper §II-B1,
Figure 2b): the functionality-stripped circuit inverts the original
output for exactly the protected input cube, and the restoration unit
inverts it back whenever the (protected) circuit inputs equal the key
inputs. The circuit computes the original function iff the key equals
the protected cube.

TTLock is the ``h = 0`` special case of SFLL-HD (§IV-A: ``strip_0``).
"""

from __future__ import annotations

from collections.abc import Sequence

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


def lock_ttlock(
    circuit: Circuit,
    key_width: int | None = None,
    cube: Sequence[int] | None = None,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Lock ``circuit`` with TTLock.

    ``key_width`` defaults to ``min(#inputs, 64)`` (the paper's cap);
    ``cube`` (the protected cube = the correct key) defaults to a seeded
    random vector; the widest-support output is locked. With
    ``optimize_netlist`` the locked netlist is strashed, as
    in the paper's methodology (§VI-A), to remove structural bias.
    """
    target, protected = resolve_lock_site(circuit, key_width)
    cube_bits = resolve_cube(cube, len(protected), seed)

    work, hidden = displace_target(circuit, target)
    work.name = f"{circuit.name}~ttlock"

    # Functionality-stripped circuit: flip the output on the cube.
    strip = add_cube_detector(work, protected, cube_bits, prefix="fsc")
    fsc = work.fresh_name("fsc_out")
    work.add_gate(fsc, GateType.XOR, [hidden, strip])

    # Restoration unit: flip back when inputs equal the key.
    keys = add_key_inputs(work, len(protected))
    restore = add_equality_comparator(work, protected, keys, prefix="fru")
    work.add_gate(target, GateType.XOR, [fsc, restore])
    work.replace_output(hidden, target)

    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme="ttlock",
        key_names=tuple(keys),
        h=0,
        _correct_key=cube_bits,
    )
