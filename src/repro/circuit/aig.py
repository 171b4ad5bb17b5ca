"""And-Inverter Graph with structural hashing.

The paper de-biases locked netlists with ABC's ``strash`` (§VI-A,
Figure 3): the netlist becomes a sea of 2-input AND nodes with inverted
edges, destroying the obvious gate-level structure of the locking logic.
This module is our equivalent: convert a :class:`Circuit` into an AIG
(constant folding, unit/complement simplification, structural hashing of
identical AND nodes), then rebuild a gate-level circuit from it.

Literal convention: node index ``i`` has literals ``2i`` (plain) and
``2i + 1`` (complemented). Node 0 is constant false, so literal 0 is the
constant 0 and literal 1 the constant 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.errors import CircuitError

FALSE_LIT = 0
TRUE_LIT = 1


class Aig:
    """A structurally hashed and-inverter graph."""

    def __init__(self):
        # _nodes[i] is None for the constant and for inputs, else
        # (lit0, lit1) with lit0 <= lit1.
        self._nodes: list[tuple[int, int] | None] = [None]
        self._input_names: dict[int, str] = {}
        self._strash: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> int:
        """Add a primary input; returns its (positive) literal."""
        index = len(self._nodes)
        self._nodes.append(None)
        self._input_names[index] = name
        return index << 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with local simplification + hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a ^ 1 == b:
            return FALSE_LIT
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return existing << 1
        index = len(self._nodes)
        self._nodes.append(key)
        self._strash[key] = index
        return index << 1

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def and_many(self, lits: Sequence[int]) -> int:
        """Balanced AND reduction (keeps depth logarithmic)."""
        if not lits:
            raise CircuitError("AND of zero literals")
        layer = list(lits)
        while len(layer) > 1:
            merged = []
            for i in range(0, len(layer) - 1, 2):
                merged.append(self.and_(layer[i], layer[i + 1]))
            if len(layer) % 2:
                merged.append(layer[-1])
            layer = merged
        return layer[0]

    def or_many(self, lits: Sequence[int]) -> int:
        return self.and_many([l ^ 1 for l in lits]) ^ 1

    def xor_many(self, lits: Sequence[int]) -> int:
        if not lits:
            raise CircuitError("XOR of zero literals")
        layer = list(lits)
        while len(layer) > 1:
            merged = []
            for i in range(0, len(layer) - 1, 2):
                merged.append(self.xor_(layer[i], layer[i + 1]))
            if len(layer) % 2:
                merged.append(layer[-1])
            layer = merged
        return layer[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_input(self, index: int) -> bool:
        return index in self._input_names

    def node_fanins(self, index: int) -> tuple[int, int]:
        node = self._nodes[index]
        if node is None:
            raise CircuitError(f"AIG node {index} is not an AND node")
        return node

    def evaluate(self, input_values: dict[str, int], lits: Sequence[int], mask: int = 1) -> list[int]:
        """Evaluate literals over packed input values (for tests)."""
        values: list[int] = [0] * len(self._nodes)
        for index, node in enumerate(self._nodes):
            if index == 0:
                values[0] = 0
            elif node is None:
                name = self._input_names[index]
                values[index] = input_values[name] & mask
            else:
                lit0, lit1 = node
                v0 = values[lit0 >> 1] ^ (mask if lit0 & 1 else 0)
                v1 = values[lit1 >> 1] ^ (mask if lit1 & 1 else 0)
                values[index] = v0 & v1
        out = []
        for lit in lits:
            value = values[lit >> 1]
            out.append(value ^ (mask if lit & 1 else 0))
        return out


_DECOMPOSABLE = {
    GateType.AND: ("and_many", False),
    GateType.NAND: ("and_many", True),
    GateType.OR: ("or_many", False),
    GateType.NOR: ("or_many", True),
    GateType.XOR: ("xor_many", False),
    GateType.XNOR: ("xor_many", True),
}


def aig_from_circuit(circuit: Circuit) -> tuple[Aig, dict[str, int]]:
    """Strash a circuit into an AIG.

    Returns the AIG and a map from every circuit node name to its AIG
    literal. All primary inputs are registered (even dangling ones) so
    that locked-circuit key inputs survive optimization.
    """
    aig = Aig()
    lit_of: dict[str, int] = {}
    for input_name in circuit.inputs:
        lit_of[input_name] = aig.add_input(input_name)
    for node in circuit.topological_order():
        if node in lit_of:
            continue
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.CONST0:
            lit_of[node] = FALSE_LIT
        elif gate_type is GateType.CONST1:
            lit_of[node] = TRUE_LIT
        elif gate_type is GateType.BUF:
            lit_of[node] = lit_of[circuit.fanins(node)[0]]
        elif gate_type is GateType.NOT:
            lit_of[node] = lit_of[circuit.fanins(node)[0]] ^ 1
        else:
            method_name, invert = _DECOMPOSABLE[gate_type]
            fanin_lits = [lit_of[f] for f in circuit.fanins(node)]
            lit = getattr(aig, method_name)(fanin_lits)
            lit_of[node] = lit ^ 1 if invert else lit
    return aig, lit_of


def aig_to_circuit(
    aig: Aig,
    outputs: dict[str, int],
    key_inputs: Sequence[str] = (),
    name: str = "strashed",
) -> Circuit:
    """Rebuild a gate-level circuit from an AIG.

    Only logic reachable from ``outputs`` is materialized (dead logic is
    swept), but every AIG input is kept as a primary input. AND nodes
    become 2-input AND gates named ``n<i>``; complemented edges become
    shared NOT gates named ``n<i>_b`` (``x_b`` for inputs); each output
    gets a BUF/NOT wrapper carrying its original name, unless it refers
    directly to an input.
    """
    circuit = Circuit(name)
    key_set = set(key_inputs)
    index_name: dict[int, str] = {}
    for index in sorted(aig._input_names):
        input_name = aig._input_names[index]
        circuit.add_input(input_name, key=input_name in key_set)
        index_name[index] = input_name

    # Reachability from output literals.
    reachable: set[int] = set()
    stack = [lit >> 1 for lit in outputs.values()]
    while stack:
        node_index = stack.pop()
        if node_index in reachable or node_index == 0:
            continue
        reachable.add(node_index)
        if not aig.is_input(node_index):
            lit0, lit1 = aig.node_fanins(node_index)
            stack.append(lit0 >> 1)
            stack.append(lit1 >> 1)

    const_name: str | None = None
    negations: dict[int, str] = {}

    def ensure_const() -> str:
        nonlocal const_name
        if const_name is None:
            const_name = circuit.fresh_name("const0")
            circuit.add_const(const_name, 0)
        return const_name

    def name_of_lit(lit: int) -> str:
        node_index = lit >> 1
        if node_index == 0:
            base = ensure_const()
            if lit & 1 == 0:
                return base
            if 0 not in negations:
                neg_name = circuit.fresh_name("const1")
                circuit.add_gate(neg_name, GateType.NOT, [base])
                negations[0] = neg_name
            return negations[0]
        base = index_name[node_index]
        if lit & 1 == 0:
            return base
        if node_index not in negations:
            neg_name = f"{base}_b"
            if circuit.has_node(neg_name):
                neg_name = circuit.fresh_name(f"{base}_b")
            circuit.add_gate(neg_name, GateType.NOT, [base])
            negations[node_index] = neg_name
        return negations[node_index]

    for node_index in sorted(reachable):
        if aig.is_input(node_index):
            continue
        lit0, lit1 = aig.node_fanins(node_index)
        gate_name = f"n{node_index}"
        index_name[node_index] = gate_name
        circuit.add_gate(
            gate_name, GateType.AND, [name_of_lit(lit0), name_of_lit(lit1)]
        )

    for output_name, lit in outputs.items():
        node_index = lit >> 1
        if (
            lit & 1 == 0
            and node_index != 0
            and aig.is_input(node_index)
            and index_name[node_index] == output_name
        ):
            circuit.add_output(output_name)
            continue
        driver = name_of_lit(lit & ~1) if node_index != 0 else ensure_const()
        wrapper_type = GateType.NOT if lit & 1 else GateType.BUF
        if circuit.has_node(output_name):
            # Output name collides with an input/gate it doesn't equal:
            # wrap under a fresh name and expose that as the output.
            fresh = circuit.fresh_name(output_name)
            circuit.add_gate(fresh, wrapper_type, [driver])
            circuit.add_output(fresh)
        else:
            circuit.add_gate(output_name, wrapper_type, [driver])
            circuit.add_output(output_name)
    return circuit
