"""Support-set matching (paper §III-B).

The circuit inputs appearing in the identified comparators are exactly
the inputs of the protected cube, so the output of the cube-stripping
unit must have support equal to that set (Compx). ``Cand`` is the set of
all gates whose support matches Compx exactly — it contains the stripper
output (and typically a handful of innocent bystanders such as popcount
sum bits, which the functional analyses then reject).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.attacks.fall.comparators import Comparator
from repro.circuit.analysis import support_table
from repro.circuit.circuit import Circuit


def comparator_inputs(comparators: Iterable[Comparator]) -> frozenset[str]:
    """Compx: the projection of Comp onto circuit inputs."""
    return frozenset(comp.circuit_input for comp in comparators)


def candidate_strip_nodes(
    locked: Circuit,
    comparators: Iterable[Comparator],
    supports: dict[str, frozenset[str]] | None = None,
) -> list[str]:
    """Cand: gates whose support equals Compx (no key inputs).

    Returned in topological order (stripper cones tend to sit deep, but
    deterministic order matters more than heuristics here).
    """
    compx = comparator_inputs(comparators)
    if not compx:
        return []
    if supports is None:
        supports = support_table(locked)
    comparator_nodes = {comp.node for comp in comparators}
    return [
        node
        for node in locked.topological_order()
        if locked.gate_type(node).is_gate
        and node not in comparator_nodes
        and supports[node] == compx
    ]
