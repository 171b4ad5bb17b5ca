"""Anti-SAT [Xie & Srivastava, CHES 2016 / TCAD 2018].

The other SAT-attack mitigation baseline (paper §I): two complementary
blocks ``g(X ⊕ K1)`` and ``¬g(X ⊕ K2)`` (``g`` = AND here, the original
proposal's choice) whose conjunction is ORed^W XORed onto the output.
When ``K1 == K2`` the conjunction is constantly 0 and the circuit is
correct; a wrong key pair corrupts exactly one input pattern, which
yields SAT-attack resistance but a heavily skewed internal signal —
the weakness the SPS attack (also in this repo) exploits.
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


def lock_antisat(
    circuit: Circuit,
    key_width: int | None = None,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Lock ``circuit`` with Anti-SAT.

    ``key_width`` is the width *per block*; the locked circuit has
    ``2 * key_width`` key inputs (K1 followed by K2). The canonical
    correct key sets ``K1 = K2`` to a block key that ``seed`` draws.
    """
    target, protected = resolve_lock_site(circuit, key_width)
    width = len(protected)
    base = resolve_cube(None, width, seed)

    work, hidden = displace_target(circuit, target)
    work.name = f"{circuit.name}~antisat"
    keys = add_key_inputs(work, 2 * width)
    keys1, keys2 = keys[:width], keys[width:]

    block1 = _add_block(work, protected, keys1, invert=False, prefix="as1")
    block2 = _add_block(work, protected, keys2, invert=True, prefix="as2")
    flip = work.fresh_name("as_flip")
    work.add_gate(flip, GateType.AND, [block1, block2])
    work.add_gate(target, GateType.XOR, [hidden, flip])
    work.replace_output(hidden, target)

    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme="antisat",
        key_names=tuple(keys),
        _correct_key=base + base,
    )


def _add_block(
    circuit: Circuit,
    inputs: Sequence[str],
    keys: Sequence[str],
    invert: bool,
    prefix: str,
) -> str:
    """``g(X ⊕ K)`` (or its complement) with ``g`` = AND."""
    if len(inputs) != len(keys):
        raise LockingError("Anti-SAT block width mismatch")
    xor_bits = []
    for index, (x, k) in enumerate(zip(inputs, keys)):
        bit = circuit.fresh_name(f"{prefix}_x{index}")
        circuit.add_gate(bit, GateType.XOR, [x, k])
        xor_bits.append(bit)
    top = circuit.fresh_name(f"{prefix}_g")
    circuit.add_gate(top, GateType.NAND if invert else GateType.AND, xor_bits)
    return top
