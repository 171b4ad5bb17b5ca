"""Double DIP [Shen & Zhou, GLSVLSI 2017].

The SAT-attack variant that broke SARLock (paper §I): each iteration
demands a distinguishing input that rules out *at least two* wrong keys
simultaneously (two key instances that agree with each other on the
distinguishing input's output yet both differ from a third/fourth pair).
Against point-corruption schemes like SARLock — where every wrong key is
distinguished only by its own single pattern — requiring 2-wise
distinction exhausts the spurious key space in half the iterations and,
more importantly, terminates with a key whose error count is not 1.

Implementation: four circuit instances C(X,K1,Y1..K4,Y4) with
``Y1 = Y2 ≠ Y3 = Y4`` and ``K3 ≠ K4``; observed I/O constrains all four
key instances. When no such input remains, any key consistent with the
observations (here: K1) is returned. This is the standard formulation
specialized to s = 2.
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


def double_dip_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the Double DIP attack (2-distinguishing input patterns)."""
    stopwatch = Stopwatch()
    telemetry = telemetry_or_null(telemetry)
    key_names = locked.key_inputs
    input_names = locked.circuit_inputs
    output_names = locked.outputs
    if not key_names:
        raise AttackError("circuit has no key inputs to attack")
    queries_before = oracle.query_count

    cnf = Cnf()
    x_vars = {name: cnf.new_var() for name in input_names}
    key_sets = [
        {name: cnf.new_var() for name in key_names} for _ in range(4)
    ]
    encodings = [
        encode_circuit(cnf=cnf, circuit=locked, shared_vars={**x_vars, **ks})
        for ks in key_sets
    ]

    def outputs_equal(enc_a, enc_b, must_equal: bool) -> None:
        bits = []
        for out in output_names:
            bit = cnf.new_var()
            a, b = enc_a.lit(out), enc_b.lit(out)
            cnf.add_clause([-bit, a, b])
            cnf.add_clause([-bit, -a, -b])
            cnf.add_clause([bit, -a, b])
            cnf.add_clause([bit, a, -b])
            bits.append(bit)
        if must_equal:
            for bit in bits:
                cnf.add_clause([-bit])
        else:
            cnf.add_clause(bits)

    # Y1 == Y2, Y3 == Y4, Y1 != Y3, K1 != K2, K3 != K4: whichever group
    # the oracle contradicts, two distinct keys fall at once.
    outputs_equal(encodings[0], encodings[1], must_equal=True)
    outputs_equal(encodings[2], encodings[3], must_equal=True)
    outputs_equal(encodings[0], encodings[2], must_equal=False)
    for left, right in ((0, 1), (2, 3)):
        diff_bits = []
        for name in key_names:
            bit = cnf.new_var()
            a, b = key_sets[left][name], key_sets[right][name]
            cnf.add_clause([-bit, a, b])
            cnf.add_clause([-bit, -a, -b])
            cnf.add_clause([bit, -a, b])
            cnf.add_clause([bit, a, -b])
            diff_bits.append(bit)
        cnf.add_clause(diff_bits)

    solver = Solver(random_phase=0.1)
    watermark = solver.add_cnf(cnf)

    key_cnf = Cnf()
    key_vars = {name: key_cnf.new_var() for name in key_names}
    key_solver = Solver()
    key_watermark = key_solver.add_cnf(key_cnf)  # registers the key variables

    def result(status: AttackStatus, key=None, iterations=0) -> AttackResult:
        return AttackResult(
            attack="double-dip",
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
        for key_set in key_sets:
            enc = encode_under_assignment(
                locked, cnf, fixed=distinguishing, shared_vars=key_set
            )
            for out in output_names:
                enc.assert_node_equals(out, observed[out])
        watermark = solver.add_cnf(cnf, watermark)
        enc = encode_under_assignment(
            locked, key_cnf, fixed=distinguishing, shared_vars=key_vars
        )
        for out in output_names:
            enc.assert_node_equals(out, observed[out])
        key_watermark = key_solver.add_cnf(key_cnf, key_watermark)

    final = key_solver.solve(budget=budget)
    if final is SolveStatus.UNKNOWN:
        return result(AttackStatus.TIMEOUT, iterations=iteration)
    if final is SolveStatus.UNSAT:
        return result(AttackStatus.FAILED, iterations=iteration)
    key = tuple(int(key_solver.model_value(key_vars[n])) for n in key_names)
    return result(AttackStatus.SUCCESS, key=key, iterations=iteration)
