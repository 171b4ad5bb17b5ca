"""Structural analyses on circuits: fanin cones, support, depth.

These implement the paper's TFC and Supp notations (§II-D):

- ``TFC(v)``: all nodes reachable from ``v`` through fanin edges,
- ``Supp(v)``: the inputs in ``TFC(v)`` — "the set of inputs that
  determine its value" (structural support),
- cone extraction, which packages a node's fanin cone as a standalone
  single-output circuit for the functional analyses.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.errors import CircuitError


def transitive_fanin(circuit: Circuit, node: str) -> set[str]:
    """TFC(node): every node on some fanin path, excluding ``node``."""
    if not circuit.has_node(node):
        raise CircuitError(f"unknown node {node!r}")
    seen: set[str] = set()
    stack = list(circuit.fanins(node))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(circuit.fanins(current))
    return seen


def support(circuit: Circuit, node: str) -> frozenset[str]:
    """Supp(node): primary inputs in the transitive fanin cone.

    A primary input's support is itself (matching the paper, where
    ``Supp(v) = {v}`` for inputs since ``v ∈ TFC(v)`` is vacuous there —
    we adopt the convention that an input supports itself).
    """
    if circuit.gate_type(node) is GateType.INPUT:
        return frozenset((node,))
    cone = transitive_fanin(circuit, node)
    return frozenset(
        n for n in cone if circuit.gate_type(n) is GateType.INPUT
    )


def support_table(circuit: Circuit) -> dict[str, frozenset[str]]:
    """Supports of every node, computed in one topological sweep.

    The set unions are memoized per structural version (several attack
    stages ask for the table on the same netlist); the returned dict is
    a fresh per-call copy of immutable values, safe to mutate.
    """
    return dict(
        circuit._memo("support_table", lambda: _build_support_table(circuit))
    )


def _build_support_table(circuit: Circuit) -> dict[str, frozenset[str]]:
    """A gate whose support equals one of its fanins' shares that fanin's
    ``frozenset`` object (every BUF/NOT, and most gates deep in a cone),
    so the table holds far fewer distinct sets than nodes."""
    table: dict[str, frozenset[str]] = {}
    for node in circuit.topological_order():
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            table[node] = frozenset((node,))
        elif gate_type.is_constant:
            table[node] = frozenset()
        else:
            supports = [table[fanin] for fanin in circuit.fanins(node)]
            merged = supports[0].union(*supports[1:])
            for fanin_support in supports:
                if len(fanin_support) == len(merged):  # a subset: equal
                    merged = fanin_support
                    break
            table[node] = merged
    return table


def extract_cone(circuit: Circuit, node: str, name: str | None = None) -> Circuit:
    """The fanin cone of ``node`` as a standalone single-output circuit.

    Inputs of the cone are the primary inputs appearing in the cone; key
    markings are preserved. Node names carry over unchanged.
    """
    order = circuit.topological_order(targets=[node])
    cone = Circuit(name or f"{circuit.name}~cone[{node}]")
    for current in order:
        gate_type = circuit.gate_type(current)
        if gate_type is GateType.INPUT:
            cone.add_input(current, key=circuit.is_key_input(current))
        elif gate_type is GateType.CONST0:
            cone.add_const(current, 0)
        elif gate_type is GateType.CONST1:
            cone.add_const(current, 1)
        else:
            cone.add_gate(current, gate_type, circuit.fanins(current))
    cone.add_output(node)
    return cone


def circuit_depth(circuit: Circuit) -> int:
    """Longest input-to-output path length, counting logic gates."""
    level: dict[str, int] = {}
    deepest = 0
    for node in circuit.topological_order():
        gate_type = circuit.gate_type(node)
        if not gate_type.is_gate:
            level[node] = 0
        else:
            level[node] = 1 + max(
                (level[f] for f in circuit.fanins(node)), default=0
            )
        if level[node] > deepest:
            deepest = level[node]
    return deepest


def dangling_nodes(circuit: Circuit) -> set[str]:
    """Nodes not in the fanin cone of any declared output."""
    live = set(circuit.topological_order(targets=circuit.outputs))
    return set(circuit.nodes) - live
