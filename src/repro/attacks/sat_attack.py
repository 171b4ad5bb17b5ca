"""The SAT attack [Subramanyan, Ray, Malik — HOST 2015].

The baseline oracle-guided attack (paper §I): iteratively find
*distinguishing input patterns* — inputs on which two candidate keys
produce different outputs — query the oracle, and constrain both key
instances with the observed I/O pair. When no distinguishing input
remains, any key consistent with the observed I/O behaviour is correct.

Implementation notes:
- one incremental CDCL solver holds ``C(X, K1, Y1) ∧ C(X, K2, Y2) ∧
  (Y1 ≠ Y2)``; each iteration appends two *cofactor* encodings of the
  circuit under the fixed distinguishing input (everything outside the
  key-dependent cone constant-folds away, so iterations stay cheap);
- a second small solver accumulates ``C(Xd, K, Yd)`` constraints and
  produces the final key when the main solver goes UNSAT.
"""

from __future__ import annotations

from repro.attacks.base import TelemetryRecorder, telemetry_or_null
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit, encode_under_assignment
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget, Stopwatch


def sat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the SAT attack on a locked netlist with oracle access."""
    stopwatch = Stopwatch()
    telemetry = telemetry_or_null(telemetry)
    key_names = locked.key_inputs
    input_names = locked.circuit_inputs
    output_names = locked.outputs
    if not key_names:
        raise AttackError("circuit has no key inputs to attack")
    if set(oracle.input_names) != set(input_names):
        raise AttackError("oracle inputs do not match the locked netlist")
    queries_before = oracle.query_count

    with telemetry.stage("encode"):
        # Main solver: double instantiation + output miter.
        cnf = Cnf()
        x_vars = {name: cnf.new_var() for name in input_names}
        k1_vars = {name: cnf.new_var() for name in key_names}
        k2_vars = {name: cnf.new_var() for name in key_names}
        enc1 = encode_circuit(locked, cnf, shared_vars={**x_vars, **k1_vars})
        enc2 = encode_circuit(locked, cnf, shared_vars={**x_vars, **k2_vars})
        miter_bits = []
        for out in output_names:
            bit = cnf.new_var()
            a, b = enc1.lit(out), enc2.lit(out)
            cnf.add_clause([-bit, a, b])
            cnf.add_clause([-bit, -a, -b])
            cnf.add_clause([bit, -a, b])
            cnf.add_clause([bit, a, -b])
            miter_bits.append(bit)
        cnf.add_clause(miter_bits)

        # Random polarity decorrelates successive distinguishing inputs
        # (with pure phase saving the solver revisits the same corner of
        # the input space and progress stalls).
        solver = Solver(random_phase=0.2)
        clause_watermark = solver.add_cnf(cnf)

        # Key solver: accumulates C(Xd, K, Yd); its model is the final key.
        key_cnf = Cnf()
        key_vars = {name: key_cnf.new_var() for name in key_names}
        key_solver = Solver()
        key_watermark = key_solver.add_cnf(key_cnf)

    def result(status: AttackStatus, key=None, iterations=0) -> AttackResult:
        return AttackResult(
            attack="sat-attack",
            status=status,
            key=key,
            key_names=key_names,
            elapsed_seconds=stopwatch.elapsed,
            oracle_queries=oracle.query_count - queries_before,
            iterations=iterations,
            details={
                "solver": solver.stats.as_dict(),
                "key_solver": key_solver.stats.as_dict(),
            },
        )

    iteration = 0
    while True:
        if budget is not None and budget.expired:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        if max_iterations is not None and iteration >= max_iterations:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        status = solver.solve(budget=budget)
        if status is SolveStatus.UNKNOWN:
            return result(AttackStatus.TIMEOUT, iterations=iteration)
        if status is SolveStatus.UNSAT:
            break
        iteration += 1
        distinguishing = {
            name: int(solver.model_value(var)) for name, var in x_vars.items()
        }
        observed = oracle.query(distinguishing)
        telemetry.iteration(
            "cegis",
            iteration,
            oracle_queries=oracle.query_count - queries_before,
            conflicts=solver.stats.conflicts,
        )
        # Constrain both key instances in the main solver.
        for kvars in (k1_vars, k2_vars):
            enc = encode_under_assignment(
                locked, cnf, fixed=distinguishing, shared_vars=kvars
            )
            for out in output_names:
                enc.assert_node_equals(out, observed[out])
        clause_watermark = solver.add_cnf(cnf, clause_watermark)
        # Mirror the constraint into the key solver.
        enc = encode_under_assignment(
            locked, key_cnf, fixed=distinguishing, shared_vars=key_vars
        )
        for out in output_names:
            enc.assert_node_equals(out, observed[out])
        key_watermark = key_solver.add_cnf(key_cnf, key_watermark)

    with telemetry.stage("key_extraction"):
        final = key_solver.solve(budget=budget)
    if final is SolveStatus.UNKNOWN:
        return result(AttackStatus.TIMEOUT, iterations=iteration)
    if final is SolveStatus.UNSAT:
        # No key consistent with the oracle: the netlist/oracle pair is
        # inconsistent (cannot happen for a well-formed locked circuit).
        return result(AttackStatus.FAILED, iterations=iteration)
    key = tuple(int(key_solver.model_value(key_vars[n])) for n in key_names)
    return result(AttackStatus.SUCCESS, key=key, iterations=iteration)
