"""SAT-based combinational equivalence checking (CEC).

Builds the classic miter: two circuits share their primary inputs, each
pair of corresponding outputs feeds an XOR, and the OR of the XORs is
asserted. UNSAT ⟹ equivalent. This replaces ABC's ``cec`` in the
paper's flow and implements the FALL equivalence-checking stage (§IV-C),
which confirms that a candidate node really computes ``strip_h(Kc)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit
from repro.errors import CircuitError
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_difference_bits, encode_xor
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a CEC run.

    ``equivalent`` is ``None`` when the solver gave up (budget expired);
    ``counterexample`` maps input names to 0/1 when a mismatch exists.
    """

    equivalent: bool | None
    counterexample: dict[str, int] | None = None

    @property
    def proved(self) -> bool:
        return self.equivalent is True

    @property
    def refuted(self) -> bool:
        return self.equivalent is False


def check_equivalence(
    left: Circuit,
    right: Circuit,
    fixed_left: Mapping[str, int] | None = None,
    fixed_right: Mapping[str, int] | None = None,
    budget: Budget | None = None,
) -> EquivalenceResult:
    """Check whether two circuits compute identical output functions.

    Inputs are matched by name; both circuits must expose the same input
    set (after removing inputs pinned by ``fixed_left``/``fixed_right``,
    which assign constants — used e.g. to compare a locked circuit under
    a specific key against the original). Outputs are matched
    positionally and must agree in count.
    """
    fixed_left = dict(fixed_left or {})
    fixed_right = dict(fixed_right or {})
    left_free = [i for i in left.inputs if i not in fixed_left]
    right_free = [i for i in right.inputs if i not in fixed_right]
    if set(left_free) != set(right_free):
        raise CircuitError(
            "input mismatch between circuits: "
            f"{sorted(set(left_free) ^ set(right_free))}"
        )
    if len(left.outputs) != len(right.outputs):
        raise CircuitError(
            f"output count mismatch: {len(left.outputs)} vs {len(right.outputs)}"
        )

    cnf = Cnf()
    shared = {name: cnf.new_var() for name in left_free}
    left_enc = encode_circuit(left, cnf, shared_vars=shared)
    right_enc = encode_circuit(right, cnf, shared_vars=shared)

    for name, value in fixed_left.items():
        cnf.add_clause([left_enc.lit(name, positive=bool(value))])
    for name, value in fixed_right.items():
        cnf.add_clause([right_enc.lit(name, positive=bool(value))])

    left_lits, right_lits = left_enc.output_lits(left), right_enc.output_lits(right)
    cnf.add_clause(encode_difference_bits(cnf, left_lits, right_lits))

    solver = Solver()
    solver.add_cnf(cnf)
    cnf.clauses.clear()
    status = solver.solve(budget=budget)
    if status is SolveStatus.UNKNOWN:
        return EquivalenceResult(equivalent=None)
    if status is SolveStatus.UNSAT:
        return EquivalenceResult(equivalent=True)
    counterexample = {
        name: int(solver.model_value(var)) for name, var in shared.items()
    }
    return EquivalenceResult(equivalent=False, counterexample=counterexample)


def check_outputs_equal(
    circuit: Circuit,
    node_a: str,
    node_b: str,
    budget: Budget | None = None,
) -> EquivalenceResult:
    """Check two nodes of the *same* circuit for functional equality."""
    cnf = Cnf()
    encoding = encode_circuit(circuit, cnf, targets=[node_a, node_b])
    cnf.add_clause([encode_xor(cnf, encoding.lit(node_a), encoding.lit(node_b))])
    solver = Solver()
    solver.add_cnf(cnf)
    cnf.clauses.clear()
    status = solver.solve(budget=budget)
    if status is SolveStatus.UNKNOWN:
        return EquivalenceResult(equivalent=None)
    if status is SolveStatus.UNSAT:
        return EquivalenceResult(equivalent=True)
    inputs = {
        name: int(solver.model_value(encoding.var_of[name]))
        for name in circuit.inputs
        if name in encoding.var_of
    }
    return EquivalenceResult(equivalent=False, counterexample=inputs)
