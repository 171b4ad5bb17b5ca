"""Structural analyses on circuits: fanin cones, support, dead logic.

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

    The set unions are memoized until the next mutation (several attack
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


def extract_cone(circuit: Circuit, node: str) -> Circuit:
    """The fanin cone of ``node`` as a standalone single-output circuit.

    Inputs of the cone are the primary inputs appearing in the cone; key
    markings are preserved. Node names carry over unchanged.
    """
    order = circuit.topological_order(targets=[node])
    cone = Circuit(f"{circuit.name}~cone[{node}]")
    for current in order:
        cone.add_node(
            current,
            circuit.gate_type(current),
            circuit.fanins(current),
            key=circuit.is_key_input(current),
        )
    cone.add_output(node)
    return cone


def dangling_nodes(circuit: Circuit) -> set[str]:
    """Nodes not in the fanin cone of any declared output."""
    live = set(circuit.topological_order(targets=circuit.outputs))
    return set(circuit.nodes) - live
