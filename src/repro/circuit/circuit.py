"""The combinational circuit DAG.

This mirrors the paper's formal model (§II-D): a circuit is a DAG whose
nodes are gates or inputs; some inputs of a locked netlist are
distinguished *key inputs* (the ``isKey`` predicate). Node names are
strings; insertion order is preserved and used as the deterministic
iteration order throughout the library.

Forward references are allowed during construction (needed by the
``.bench`` parser, where gates may be defined before their fanins);
:meth:`Circuit.validate` and :meth:`Circuit.topological_order` check that
the final netlist is a well-formed DAG.

Structure derived from the netlist — topological orders, fanout tables,
support sets, the compiled simulation engine — is memoized on the
circuit (:meth:`Circuit._memo`) and dropped by every structural
mutation, so it is rebuilt only when the netlist changes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.circuit.gates import GateType, check_arity
from repro.errors import CircuitError


def topological_region_order(
    fanins: dict[str, tuple[str, ...]], wanted: Iterable[str]
) -> list[str]:
    """Fanin-before-fanout order over the cones of ``wanted``.

    ``fanins`` must have an entry for every defined node (inputs map to
    ``()``); membership in it defines the node set. Shared by
    :meth:`Circuit.topological_order` and the compiled engine's
    snapshot traversal. Raises on cycles and dangling references.
    """
    order: list[str] = []
    state: dict[str, int] = {}  # 0 = visiting, 1 = done
    for root in wanted:
        if state.get(root) == 1:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        while stack:
            node, child_index = stack.pop()
            if child_index == 0:
                if state.get(node) == 1:
                    continue
                if state.get(node) == 0:
                    raise CircuitError(f"combinational cycle through {node!r}")
                if node not in fanins:
                    raise CircuitError(
                        f"reference to undefined node {node!r}"
                    )
                state[node] = 0
            node_fanins = fanins[node]
            if child_index < len(node_fanins):
                stack.append((node, child_index + 1))
                child = node_fanins[child_index]
                if state.get(child) != 1:
                    if state.get(child) == 0:
                        raise CircuitError(
                            f"combinational cycle through {child!r}"
                        )
                    stack.append((child, 0))
            else:
                state[node] = 1
                order.append(node)
    return order


class Circuit:
    """A named combinational netlist.

    >>> c = Circuit("demo")
    >>> _ = c.add_input("a"); _ = c.add_input("b")
    >>> _ = c.add_gate("y", GateType.AND, ["a", "b"])
    >>> c.add_output("y")
    >>> c.num_gates
    1
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._type: dict[str, GateType] = {}
        self._fanins: dict[str, tuple[str, ...]] = {}
        self._outputs: list[str] = []
        self._key_inputs: set[str] = set()
        self._fresh_counter = 0
        self._derived: dict[object, object] = {}

    # ------------------------------------------------------------------
    # Derived-data memoization
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every derived structure; each structural mutation calls it."""
        if self._derived:
            self._derived.clear()

    def _memo(self, key, build):
        """Memoized derived structure (topological orders, fanout tables,
        support sets, the compiled engine), dropped on mutation."""
        try:
            return self._derived[key]
        except KeyError:
            value = build()
            self._derived[key] = value
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str, key: bool = False) -> str:
        """Add a primary input; ``key=True`` marks it a key input."""
        self._add_node(name, GateType.INPUT, ())
        if key:
            self._key_inputs.add(name)
            self._invalidate()
        return name

    def add_key_input(self, name: str) -> str:
        return self.add_input(name, key=True)

    def add_const(self, name: str, value: int) -> str:
        """Add a constant-0 or constant-1 node."""
        if value not in (0, 1):
            raise CircuitError(f"constant value must be 0 or 1, got {value!r}")
        gate_type = GateType.CONST1 if value else GateType.CONST0
        self._add_node(name, gate_type, ())
        return name

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> str:
        """Add a logic gate. Fanins may be forward references."""
        if not gate_type.is_gate:
            raise CircuitError(
                f"add_gate cannot create {gate_type.value} nodes; "
                "use add_input/add_const"
            )
        fanin_tuple = tuple(fanins)
        check_arity(gate_type, len(fanin_tuple))
        self._add_node(name, gate_type, fanin_tuple)
        return name

    def add_node(
        self,
        name: str,
        gate_type: GateType,
        fanins: Sequence[str],
        key: bool = False,
    ) -> str:
        """Add a node of any type: an input (``key=True`` marks a key
        input), a constant, or a gate over ``fanins``."""
        if gate_type is GateType.INPUT:
            return self.add_input(name, key=key)
        if gate_type.is_constant:
            return self.add_const(name, int(gate_type is GateType.CONST1))
        return self.add_gate(name, gate_type, fanins)

    def _add_node(self, name: str, gate_type: GateType, fanins: tuple[str, ...]) -> None:
        if not name:
            raise CircuitError("node name must be a non-empty string")
        if name in self._type:
            raise CircuitError(f"node {name!r} already exists")
        self._type[name] = gate_type
        self._fanins[name] = fanins
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Mark an existing (or forward-referenced) node as an output."""
        if name in self._outputs:
            raise CircuitError(f"{name!r} is already an output")
        self._outputs.append(name)
        self._invalidate()

    def replace_output(self, old: str, new: str) -> None:
        """Swap output ``old`` for node ``new``, keeping its position."""
        if old not in self._outputs:
            raise CircuitError(f"{old!r} is not an output")
        if new in self._outputs:
            raise CircuitError(f"{new!r} is already an output")
        self._outputs[self._outputs.index(old)] = new
        self._invalidate()

    def fresh_name(self, prefix: str = "n") -> str:
        """A node name not yet present in the circuit."""
        while True:
            self._fresh_counter += 1
            candidate = f"{prefix}${self._fresh_counter}"
            if candidate not in self._type:
                return candidate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_node(self, name: str) -> bool:
        return name in self._type

    def gate_type(self, name: str) -> GateType:
        self._require(name)
        return self._type[name]

    def fanins(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._fanins[name]

    def is_key_input(self, name: str) -> bool:
        """The paper's ``isKey`` predicate."""
        return name in self._key_inputs

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._memo("nodes", lambda: tuple(self._type))

    @property
    def inputs(self) -> tuple[str, ...]:
        """All primary inputs (circuit + key), in insertion order."""
        return self._memo(
            "inputs",
            lambda: tuple(
                n for n, t in self._type.items() if t is GateType.INPUT
            ),
        )

    @property
    def key_inputs(self) -> tuple[str, ...]:
        return self._memo(
            "key_inputs",
            lambda: tuple(n for n in self.inputs if n in self._key_inputs),
        )

    @property
    def circuit_inputs(self) -> tuple[str, ...]:
        """Primary inputs that are not key inputs (the paper's X)."""
        return self._memo(
            "circuit_inputs",
            lambda: tuple(n for n in self.inputs if n not in self._key_inputs),
        )

    @property
    def outputs(self) -> tuple[str, ...]:
        return self._memo("outputs", lambda: tuple(self._outputs))

    @property
    def gates(self) -> tuple[str, ...]:
        return self._memo(
            "gates",
            lambda: tuple(n for n, t in self._type.items() if t.is_gate),
        )

    @property
    def num_gates(self) -> int:
        return self._memo(
            "num_gates",
            lambda: sum(1 for t in self._type.values() if t.is_gate),
        )

    def fanouts(self) -> dict[str, list[str]]:
        """Map node -> list of nodes it feeds.

        The edge traversal is memoized until the next mutation; the
        returned dict-of-lists is a fresh copy the caller may mutate.
        """
        table = self._memo("fanouts", self._build_fanouts)
        return {name: list(fanout) for name, fanout in table.items()}

    def _build_fanouts(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {name: [] for name in self._type}
        for name, fanins in self._fanins.items():
            for fanin in fanins:
                if fanin in table:
                    table[fanin].append(name)
        return {name: tuple(fanout) for name, fanout in table.items()}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self, targets: Iterable[str] | None = None) -> list[str]:
        """Nodes in fanin-before-fanout order.

        With ``targets``, restricts to the union of their transitive fanin
        cones (targets included). Raises on cycles or dangling references.

        Each order (full, or per ``targets`` tuple) is memoized until the
        next mutation; callers receive a fresh list each time.
        """
        wanted = None if targets is None else tuple(targets)

        def build() -> tuple[str, ...]:
            roots = self._type if wanted is None else wanted
            return tuple(topological_region_order(self._fanins, roots))

        return list(self._memo(("topo", wanted), build))

    def validate(self) -> None:
        """Check the netlist is a closed DAG with declared outputs."""
        for name in self._outputs:
            if name not in self._type:
                raise CircuitError(f"output {name!r} is not defined")
        self.topological_order()
        if not self._outputs:
            raise CircuitError("circuit has no outputs")

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        duplicate = Circuit(name or self.name)
        duplicate._type = dict(self._type)
        duplicate._fanins = dict(self._fanins)
        duplicate._outputs = list(self._outputs)
        duplicate._key_inputs = set(self._key_inputs)
        duplicate._fresh_counter = self._fresh_counter
        return duplicate

    def renamed(self, mapping: dict[str, str]) -> "Circuit":
        """A copy with nodes renamed per ``mapping`` (missing = keep)."""

        def rename(node: str) -> str:
            return mapping.get(node, node)

        new_names = [rename(n) for n in self._type]
        if len(set(new_names)) != len(new_names):
            raise CircuitError("renaming would merge distinct nodes")
        duplicate = Circuit(self.name)
        for node, gate_type in self._type.items():
            duplicate._type[rename(node)] = gate_type
            duplicate._fanins[rename(node)] = tuple(
                rename(f) for f in self._fanins[node]
            )
        duplicate._outputs = [rename(n) for n in self._outputs]
        duplicate._key_inputs = {rename(n) for n in self._key_inputs}
        duplicate._fresh_counter = self._fresh_counter
        return duplicate

    def _require(self, name: str) -> None:
        if name not in self._type:
            raise CircuitError(f"unknown node {name!r}")

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"gates={self.num_gates}, outputs={len(self._outputs)})"
        )
