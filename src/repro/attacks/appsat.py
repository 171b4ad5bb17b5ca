"""AppSAT — approximate SAT attack [Shamsi et al., HOST 2017].

The approximate attack that degraded SARLock (paper §I): interleave
normal SAT-attack iterations with random-query validation rounds. If a
candidate key survives a large random sample, it is *approximately*
correct (wrong on a vanishing fraction of inputs) — exactly the failure
mode of point-corruption schemes, whose effective protection collapses
once the attacker accepts an approximate netlist. Random-sample
disagreements are fed back as additional I/O constraints.

Returns SUCCESS with an exactly-correct key when the underlying SAT loop
converges, or ``details['approximate'] = True`` when the key was
accepted by sampling.
"""

from __future__ import annotations

from repro.attacks.base import TelemetryRecorder, telemetry_or_null
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_outputs
from repro.circuit.tseitin import encode_circuit, encode_under_assignment
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.utils.rng import RngLike, make_rng
from repro.utils.timer import Budget, Stopwatch


def appsat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    settle_rounds: int = 4,
    queries_per_round: int = 64,
    error_threshold: float = 0.0,
    seed: RngLike = 0,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run AppSAT.

    Every ``settle_rounds`` SAT iterations, the current candidate key is
    validated on ``queries_per_round`` random patterns; if its sampled
    error rate is at most ``error_threshold`` for one full round, the
    key is accepted as approximately correct.
    """
    stopwatch = Stopwatch()
    telemetry = telemetry_or_null(telemetry)
    rng = make_rng(seed)
    key_names = locked.key_inputs
    input_names = locked.circuit_inputs
    output_names = locked.outputs
    if not key_names:
        raise AttackError("circuit has no key inputs to attack")
    queries_before = oracle.query_count

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
    solver = Solver(random_phase=0.1)
    watermark = solver.add_cnf(cnf)

    # Key extractor: accumulates all observed I/O constraints on K.
    key_cnf = Cnf()
    key_vars = {name: key_cnf.new_var() for name in key_names}
    key_solver = Solver()
    key_watermark = key_solver.add_cnf(key_cnf)  # registers the key variables

    def add_io_constraint(pattern: dict[str, int], outputs: dict[str, int]):
        nonlocal watermark, key_watermark
        for kvars in (k1_vars, k2_vars):
            enc = encode_under_assignment(
                locked, cnf, fixed=pattern, shared_vars=kvars
            )
            for out in output_names:
                enc.assert_node_equals(out, outputs[out])
        watermark = solver.add_cnf(cnf, watermark)
        enc = encode_under_assignment(
            locked, key_cnf, fixed=pattern, shared_vars=key_vars
        )
        for out in output_names:
            enc.assert_node_equals(out, outputs[out])
        key_watermark = key_solver.add_cnf(key_cnf, key_watermark)

    def current_key() -> tuple[int, ...] | None:
        status = key_solver.solve(budget=budget)
        if status is not SolveStatus.SAT:
            return None
        return tuple(int(key_solver.model_value(key_vars[n])) for n in key_names)

    def result(status, key=None, iterations=0, approximate=False):
        return AttackResult(
            attack="appsat",
            status=status,
            key=key,
            key_names=key_names,
            elapsed_seconds=stopwatch.elapsed,
            oracle_queries=oracle.query_count - queries_before,
            iterations=iterations,
            details={
                "approximate": approximate,
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
            key = current_key()
            if key is None:
                return result(AttackStatus.FAILED, iterations=iteration)
            return result(AttackStatus.SUCCESS, key=key, iterations=iteration)
        iteration += 1
        pattern = {
            name: int(solver.model_value(var)) for name, var in x_vars.items()
        }
        add_io_constraint(pattern, oracle.query(pattern))
        telemetry.iteration(
            "cegis",
            iteration,
            oracle_queries=oracle.query_count - queries_before,
            conflicts=solver.stats.conflicts,
        )

        if iteration % settle_rounds:
            continue
        # Validation round: random sampling against the oracle. The
        # whole round is two packed simulations — one sliced oracle
        # call and one keyed-netlist sweep with sample j in bit j —
        # and the disagreement set is a bitwise diff of packed words.
        key = current_key()
        if key is None:
            return result(AttackStatus.FAILED, iterations=iteration)
        key_assignment = dict(zip(key_names, key))
        samples = [
            {name: rng.getrandbits(1) for name in input_names}
            for _ in range(queries_per_round)
        ]
        observed_by_name = dict(
            zip(oracle.output_names, oracle.query_sliced(samples))
        )
        predicted_words = sweep_outputs(
            locked, [{**sample, **key_assignment} for sample in samples]
        )
        wrong = 0
        for name, predicted in zip(output_names, predicted_words):
            wrong |= observed_by_name[name] ^ predicted
        errors = wrong.bit_count()
        telemetry.event(
            "validation_round",
            stage="validate",
            iteration=iteration,
            samples=queries_per_round,
            disagreements=errors,
        )
        for j, sample in enumerate(samples):
            if (wrong >> j) & 1:
                add_io_constraint(
                    sample,
                    {
                        name: (observed_by_name[name] >> j) & 1
                        for name in output_names
                    },
                )
        if errors / queries_per_round <= error_threshold:
            return result(
                AttackStatus.SUCCESS,
                key=key,
                iterations=iteration,
                approximate=True,
            )
