"""Compact picklable netlist specs and content fingerprints.

A *spec* is a plain tuple snapshot of a :class:`Circuit` — name, nodes
with gate types and fanins, outputs, key inputs — that ships cheaply to
worker processes (the attack portfolio racer) and serializes into
attack results (``__circuit__`` markers). The fingerprint is a content
hash of the spec; attack checkpoints use it to check that a resume
targets the circuit the transcript was recorded against.
"""

from __future__ import annotations

import hashlib

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType


def circuit_spec(circuit: Circuit) -> tuple:
    """A compact picklable snapshot sufficient to rebuild ``circuit``."""
    return (
        circuit.name,
        tuple(
            (name, circuit.gate_type(name).value, circuit.fanins(name))
            for name in circuit.nodes
        ),
        circuit.outputs,
        circuit.key_inputs,
    )


def circuit_from_spec(spec: tuple) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_spec` output."""
    name, nodes, outputs, key_inputs = spec
    keys = set(key_inputs)
    circuit = Circuit(name)
    for node, type_value, fanins in nodes:
        gate_type = GateType(type_value)
        if gate_type is GateType.INPUT:
            circuit.add_input(node, key=node in keys)
        elif gate_type is GateType.CONST0:
            circuit.add_const(node, 0)
        elif gate_type is GateType.CONST1:
            circuit.add_const(node, 1)
        else:
            circuit.add_gate(node, gate_type, fanins)
    for out in outputs:
        circuit.add_output(out)
    return circuit


def circuit_fingerprint(circuit: Circuit) -> str:
    """A stable content hash of the netlist (name included)."""
    return hashlib.blake2b(
        repr(circuit_spec(circuit)).encode(), digest_size=16
    ).hexdigest()
