"""The paper's worked example circuit.

:func:`paper_example_circuit` is the running example of the paper's
§II-B (Figure 2a): ``y = (a ∧ b) ∨ (b ∧ c) ∨ (c ∧ a) ∨ d``. The FALL
walk-through in §III/§IV locks this circuit with TTLock and SFLL-HD1
and attacks it; our tests replay that walk-through end to end.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType

def paper_example_circuit() -> Circuit:
    """Figure 2a of the paper: ``y = ab + bc + ca + d``.

    Inputs are named a, b, c, d; the single output is y.
    """
    circuit = Circuit("paper_example")
    for name in ("a", "b", "c", "d"):
        circuit.add_input(name)
    circuit.add_gate("ab", GateType.AND, ["a", "b"])
    circuit.add_gate("bc", GateType.AND, ["b", "c"])
    circuit.add_gate("ca", GateType.AND, ["c", "a"])
    circuit.add_gate("maj", GateType.OR, ["ab", "bc", "ca"])
    circuit.add_gate("y", GateType.OR, ["maj", "d"])
    circuit.add_output("y")
    return circuit


# The protected cube used throughout the paper's walk-through: a=1, b=0,
# c=0, d=1 (the cube a ∧ ¬b ∧ ¬c ∧ d), hence correct key (1, 0, 0, 1).
PAPER_EXAMPLE_CUBE = (1, 0, 0, 1)
