"""Comparator identification (paper §III-A).

Find every node whose support is exactly {one circuit input, one key
input} and whose circuit function is XOR or XNOR of the two. These are
the functionality-restoration unit's comparators; they reveal the
pairing between key inputs and circuit inputs, and the union of the
paired circuit inputs feeds support-set matching (§III-B).

The paper checks XOR/XNOR-ness with a SAT solver; a 2-input cone has
exactly four input patterns, so exhaustive bit-parallel simulation of
every candidate cone in one pass is an exact and cheaper check. The
paper's SAT formulation lives on in the tests, as the reference this
classifier must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_node_values

_XOR_TABLE = 0b0110  # patterns (x,k) = 00,10,01,11 with x = bit 0
_XNOR_TABLE = 0b1001


@dataclass(frozen=True)
class Comparator:
    """One identified comparator: the tuple 〈v_i, x_i, k_i〉 plus polarity
    (``is_xnor``: v = ¬(x ⊕ k) rather than v = x ⊕ k)."""

    node: str
    circuit_input: str
    key_input: str
    is_xnor: bool


def find_comparators(
    locked: Circuit,
    supports: dict[str, frozenset[str]],
) -> list[Comparator]:
    """All comparator tuples Comp = {〈v_i, x_i, k_i〉, ...} in the netlist.

    ``supports`` is the netlist's ``support_table``.
    """
    candidates: list[tuple[str, str, str]] = []
    for node in locked.nodes:
        if not locked.gate_type(node).is_gate:
            continue
        supp = supports[node]
        if len(supp) != 2:
            continue
        keys = [n for n in supp if locked.is_key_input(n)]
        if len(keys) != 1:
            continue
        key_input = keys[0]
        circuit_input = next(n for n in supp if n != key_input)
        candidates.append((node, circuit_input, key_input))

    verdicts = _classify_sim_batch(locked, [n for n, _, _ in candidates])
    comparators: list[Comparator] = []
    for (node, circuit_input, key_input), verdict in zip(
        candidates, verdicts
    ):
        if verdict is None:
            continue
        comparators.append(
            Comparator(
                node=node,
                circuit_input=circuit_input,
                key_input=key_input,
                is_xnor=verdict,
            )
        )
    return comparators


def pairing_from_comparators(
    comparators: list[Comparator],
) -> dict[str, str]:
    """Map circuit input -> paired key input (deterministic first wins)."""
    pairing: dict[str, str] = {}
    for comp in comparators:
        pairing.setdefault(comp.circuit_input, comp.key_input)
    return pairing


def _classify_sim_batch(
    locked: Circuit, nodes: list[str]
) -> list[bool | None]:
    """Exhaustively simulate all 2-support cones in one width-4 pass.

    Every circuit input carries the canonical x pattern and every key
    input the canonical k pattern; a node whose support is exactly
    {x_i, k_i} then computes its own 4-row (x, k) truth table, so one
    compiled pass over the union of the candidate cones classifies all
    of them. ``None`` marks a node that is not XOR/XNOR of its support.
    """
    if not nodes:
        return []
    values = {
        name: 0b0011 if locked.is_key_input(name) else 0b0101
        for name in locked.inputs
    }
    words = sweep_node_values(locked, nodes, values, width=4)
    verdicts: list[bool | None] = []
    for table in words:
        if table == _XOR_TABLE:
            verdicts.append(False)
        elif table == _XNOR_TABLE:
            verdicts.append(True)
        else:
            verdicts.append(None)
    return verdicts

