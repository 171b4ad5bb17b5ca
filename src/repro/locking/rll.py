"""Random logic locking (EPIC-style XOR/XNOR key gates) [Roy et al. 2008].

The pre-SAT-attack baseline the paper's introduction surveys: key gates
(XOR or XNOR) are inserted on randomly chosen internal wires. An XOR key
gate is transparent when its key bit is 0, an XNOR key gate when its key
bit is 1. Vulnerable to the SAT attack [22] — our experiments use it as
the "SAT attack wins quickly" control.
"""

from __future__ import annotations

import random

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.opt import optimize
from repro.errors import LockingError
from repro.locking._common import add_key_inputs
from repro.locking.base import LockedCircuit


def lock_random_xor(
    circuit: Circuit,
    key_width: int = 32,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Insert ``key_width`` XOR/XNOR key gates on random internal wires."""
    rng = random.Random(seed)
    candidates = [node for node in circuit.gates if node not in circuit.outputs]
    if key_width < 1:
        raise LockingError("key width must be at least 1")
    if key_width > len(candidates):
        raise LockingError(
            f"cannot insert {key_width} key gates: only "
            f"{len(candidates)} lockable wires"
        )
    chosen = rng.sample(candidates, key_width)
    key_bits = tuple(rng.getrandbits(1) for _ in range(key_width))

    # Each chosen wire's driver is moved to a hidden name; a key gate
    # takes over the original name, so every fanout (and the output
    # list) transparently reads the locked wire.
    hidden_of: dict[str, str] = {}
    for wire in chosen:
        hidden = f"{wire}$rll"
        while circuit.has_node(hidden) or hidden in hidden_of.values():
            hidden += "_"
        hidden_of[wire] = hidden

    work = Circuit(f"{circuit.name}~rll")
    for node in circuit.nodes:
        # Fanin references are NOT renamed: references to a locked
        # wire will resolve to the key gate added below.
        work.add_node(
            hidden_of.get(node, node),
            circuit.gate_type(node),
            circuit.fanins(node),
            key=circuit.is_key_input(node),
        )
    keys = add_key_inputs(work, key_width)
    for wire, key_bit, key_name in zip(chosen, key_bits, keys):
        gate_type = GateType.XOR if key_bit == 0 else GateType.XNOR
        work.add_gate(wire, gate_type, [hidden_of[wire], key_name])
    for output in circuit.outputs:
        work.add_output(output)
    work.validate()

    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme="rll",
        key_names=tuple(keys),
        _correct_key=key_bits,
    )
