"""Comparator identification (paper §III-A).

Find every node whose support is exactly {one circuit input, one key
input} and whose circuit function is XOR or XNOR of the two. These are
the functionality-restoration unit's comparators; they reveal the
pairing between key inputs and circuit inputs, and the union of the
paired circuit inputs feeds support-set matching (§III-B).

The paper checks XOR/XNOR-ness with a SAT solver; a 2-input cone has
exactly four input patterns, so exhaustive bit-parallel simulation of
the cone is an exact and cheaper check. We implement simulation as the
default and keep the SAT variant (tests assert they agree).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.analysis import support_table
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_node_values
from repro.circuit.tseitin import encode_circuit
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus

_XOR_TABLE = 0b0110  # patterns (x,k) = 00,10,01,11 with x = bit 0
_XNOR_TABLE = 0b1001


@dataclass(frozen=True)
class Comparator:
    """One identified comparator: the tuple 〈v_i, x_i, k_i〉 plus polarity."""

    node: str
    circuit_input: str
    key_input: str
    is_xnor: bool

    @property
    def polarity(self) -> int:
        """+1 for XOR (v = x ⊕ k), -1 for XNOR (v = ¬(x ⊕ k))."""
        return -1 if self.is_xnor else 1


def find_comparators(
    locked: Circuit,
    supports: dict[str, frozenset[str]] | None = None,
    use_sat: bool = False,
) -> list[Comparator]:
    """All comparator tuples Comp = {〈v_i, x_i, k_i〉, ...} in the netlist."""
    if supports is None:
        supports = support_table(locked)
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

    verdicts = (
        [_classify_sat(locked, n, x, k) for n, x, k in candidates]
        if use_sat
        else _classify_sim_batch(locked, [n for n, _, _ in candidates])
    )
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


def _classify_sat(
    locked: Circuit, node: str, x: str, k: str
) -> bool | None:
    """SAT formulation from the paper: validity of cktfn_v ⇔ ±(x ⊕ k)."""
    cnf = Cnf()
    encoding = encode_circuit(locked, cnf, targets=[node])
    v = encoding.lit(node)
    xv = encoding.lit(x)
    kv = encoding.lit(k)
    solver = Solver()
    solver.add_cnf(cnf)
    cnf.clauses.clear()

    def is_valid_equiv(negate: bool) -> bool:
        # v ⇔ (x ⊕ k) is valid iff v ≠ (x ⊕ k) is UNSAT. Check the four
        # violating combinations via assumptions.
        for x_bit in (0, 1):
            for k_bit in (0, 1):
                xor = x_bit ^ k_bit
                want_v = xor ^ (1 if negate else 0)
                assumptions = [
                    xv if x_bit else -xv,
                    kv if k_bit else -kv,
                    -v if want_v else v,  # assert v != expected
                ]
                if solver.solve(assumptions=assumptions) is SolveStatus.SAT:
                    return False
        return True

    if is_valid_equiv(negate=False):
        return False
    if is_valid_equiv(negate=True):
        return True
    return None
