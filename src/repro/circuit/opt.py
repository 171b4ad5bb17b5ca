"""Netlist optimization pipeline.

``optimize`` is the stand-in for the paper's "locked netlists were
optimized using ABC v1.01 to minimize any structural bias introduced by
our locking implementation" (§VI-A): an AIG strash round-trip (constant
folding, complement/unit simplification, structural hashing, dead-logic
sweep). ``sweep`` removes dangling logic without restructuring.
"""

from __future__ import annotations

from repro.circuit.aig import aig_from_circuit, aig_to_circuit
from repro.circuit.analysis import dangling_nodes
from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType


def optimize(circuit: Circuit) -> Circuit:
    """Strash the circuit into an AIG and rebuild it.

    The result is functionally equivalent (CEC-checked in tests), uses
    only AND/NOT/BUF gates (plus constants), and has lost the original
    internal node names and gate boundaries — exactly the adversary's
    view of a locked netlist after synthesis (paper Figure 3).
    """
    aig, lit_of = aig_from_circuit(circuit)
    outputs = {name: lit_of[name] for name in circuit.outputs}
    return aig_to_circuit(
        aig, outputs, key_inputs=circuit.key_inputs, name=circuit.name
    )


def sweep(circuit: Circuit) -> Circuit:
    """Remove nodes unreachable from the outputs (inputs are kept)."""
    dead = dangling_nodes(circuit)
    dead = {n for n in dead if circuit.gate_type(n) is not GateType.INPUT}
    if not dead:
        return circuit.copy()
    cleaned = Circuit(circuit.name)
    for node in circuit.nodes:
        if node in dead:
            continue
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            cleaned.add_input(node, key=circuit.is_key_input(node))
        elif gate_type is GateType.CONST0:
            cleaned.add_const(node, 0)
        elif gate_type is GateType.CONST1:
            cleaned.add_const(node, 1)
        else:
            cleaned.add_gate(node, gate_type, circuit.fanins(node))
    for output in circuit.outputs:
        cleaned.add_output(output)
    return cleaned
