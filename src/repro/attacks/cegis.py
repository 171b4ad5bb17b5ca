"""The oracle-guided attacks: SAT attack, AppSAT and Double DIP.

All three run one counterexample-guided loop: solve a *miter* over
netlist copies that share the inputs ``X`` but have their own keys,
query the oracle on the model's distinguishing input, and constrain
every key copy with the observed I/O pair (a cofactor encoding, so
everything outside the key-dependent cone constant-folds away). When
the miter goes UNSAT, a key solver holding the same constraints yields
the key. The families differ in the miter and between iterations:

- SAT attack [Subramanyan et al., HOST 2015], the paper's baseline
  (§I): two copies with ``Y1 ≠ Y2``;
- Double DIP [Shen & Zhou, GLSVLSI 2017]: four copies with ``Y1 = Y2 ≠
  Y3 = Y4``, ``K1 ≠ K2`` and ``K3 ≠ K4``, so each distinguishing input
  rules out two wrong keys and SARLock ends with a key that errs on at
  most one pattern;
- AppSAT [Shamsi et al., HOST 2017]: the SAT miter plus a random-query
  validation round every ``SETTLE_ROUNDS`` iterations that accepts an
  approximately correct key (``details['approximate']``) and feeds the
  sampled disagreements back as I/O constraints.

Variables, clauses and solver calls come in one fixed order per family;
the seeded searches depend on it. Each ``Cnf`` is a staging buffer: its
clauses are cleared once loaded into the solver, so a clause is stored
only once, in the solver.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import nullcontext

from repro.attacks.base import TelemetryRecorder, telemetry_or_null
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_outputs
from repro.circuit.tseitin import encode_circuit, encode_under_assignment
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_difference_bits
from repro.sat.solver import Solver, SolveStatus
from repro.utils.rng import RngLike, make_rng
from repro.utils.timer import Budget, Stopwatch

#: AppSAT validates its candidate key every ``SETTLE_ROUNDS`` iterations
#: on ``QUERIES_PER_ROUND`` random patterns and accepts it when the
#: sampled error rate is at most ``ERROR_THRESHOLD``.
SETTLE_ROUNDS = 4
QUERIES_PER_ROUND = 64
ERROR_THRESHOLD = 0.0


def check_attack_inputs(locked: Circuit, oracle: IOOracle) -> None:
    """Reject a keyless netlist and an oracle for a different circuit."""
    if not locked.key_inputs:
        raise AttackError("circuit has no key inputs to attack")
    if set(oracle.input_names) != set(locked.circuit_inputs):
        raise AttackError("oracle inputs do not match the locked netlist")


def constrain_io(
    locked: Circuit,
    cnf: Cnf,
    pattern: Mapping[str, int],
    outputs: Mapping[str, int],
    key_vars: Mapping[str, int],
) -> None:
    """Append ``C(pattern, K, outputs)`` over the key variables ``key_vars``."""
    enc = encode_under_assignment(
        locked, cnf, fixed=pattern, shared_vars=key_vars
    )
    for out in locked.outputs:
        enc.assert_node_equals(out, outputs[out])


def _outputs_differ(cnf: Cnf, ys: list[list[int]], ks: list[list[int]]) -> None:
    cnf.add_clause(encode_difference_bits(cnf, ys[0], ys[1]))


def _two_keys_differ(cnf: Cnf, ys: list[list[int]], ks: list[list[int]]) -> None:
    # Y1 == Y2, Y3 == Y4, Y1 != Y3, K1 != K2, K3 != K4: whichever group
    # the oracle contradicts, two distinct keys fall at once. The
    # equalities are XOR bits forced to 0 rather than ``assert_equal``
    # pairs, which would number the variables differently.
    for left, right in ((0, 1), (2, 3)):
        for bit in encode_difference_bits(cnf, ys[left], ys[right]):
            cnf.add_clause([-bit])
    cnf.add_clause(encode_difference_bits(cnf, ys[0], ys[2]))
    for left, right in ((0, 1), (2, 3)):
        cnf.add_clause(encode_difference_bits(cnf, ks[left], ks[right]))


class _Cegis:
    """One distinguishing-input loop over ``copies`` keyed netlist copies.

    ``miter(cnf, ys, ks)`` gets each copy's output and key literals.
    ``staged`` wraps encoding and key extraction in telemetry stages;
    ``details`` seeds every result's details.
    """

    def __init__(
        self,
        label: str,
        locked: Circuit,
        oracle: IOOracle,
        copies: int,
        miter: Callable[[Cnf, list[list[int]], list[list[int]]], None],
        random_phase: float,
        budget: Budget | None,
        max_iterations: int | None,
        telemetry: TelemetryRecorder | None,
        staged: bool = False,
        details: Mapping[str, object] | None = None,
    ):
        self.stopwatch = Stopwatch()
        check_attack_inputs(locked, oracle)
        self.label = label
        self.locked = locked
        self.oracle = oracle
        self.budget = budget
        self.max_iterations = max_iterations
        self.telemetry = telemetry_or_null(telemetry)
        self._stage = self.telemetry.stage if staged else lambda name: nullcontext()
        self.details = dict(details or {})
        self.key_names = locked.key_inputs
        self.queries_before = oracle.query_count

        with self._stage("encode"):
            cnf = self.cnf = Cnf()
            self.x_vars = {name: cnf.new_var() for name in locked.circuit_inputs}
            self.key_sets = [
                {name: cnf.new_var() for name in self.key_names}
                for _ in range(copies)
            ]
            encodings = [
                encode_circuit(locked, cnf, shared_vars={**self.x_vars, **ks})
                for ks in self.key_sets
            ]
            miter(
                cnf,
                [enc.lits(locked.outputs) for enc in encodings],
                [list(ks.values()) for ks in self.key_sets],
            )
            self.solver = Solver(random_phase=random_phase)
            self.solver.add_cnf(cnf)
            cnf.clauses.clear()

            self.key_cnf = Cnf()
            self.key_vars = {name: self.key_cnf.new_var() for name in self.key_names}
            self.key_solver = Solver()
            self.key_solver.add_cnf(self.key_cnf)

    def observe(self, pattern: Mapping[str, int], outputs: Mapping[str, int]):
        """Constrain every key copy and the key solver with one I/O pair."""
        locked, cnf, key_cnf = self.locked, self.cnf, self.key_cnf
        for key_vars in self.key_sets:
            constrain_io(locked, cnf, pattern, outputs, key_vars)
        self.solver.add_cnf(cnf)
        cnf.clauses.clear()
        constrain_io(locked, key_cnf, pattern, outputs, self.key_vars)
        self.key_solver.add_cnf(key_cnf)
        key_cnf.clauses.clear()

    def extract_key(self) -> tuple[AttackStatus, tuple[int, ...] | None]:
        """A key consistent with every observation (FAILED: none is)."""
        status = self.key_solver.solve(budget=self.budget)
        if status is SolveStatus.UNKNOWN:
            return AttackStatus.TIMEOUT, None
        if status is SolveStatus.UNSAT:
            return AttackStatus.FAILED, None
        model = self.key_solver.model_value
        return AttackStatus.SUCCESS, tuple(
            int(model(self.key_vars[name])) for name in self.key_names
        )

    def result(self, status, key=None, iterations=0, **details) -> AttackResult:
        return AttackResult(
            attack=self.label,
            status=status,
            key=key,
            key_names=self.key_names,
            elapsed_seconds=self.stopwatch.elapsed,
            oracle_queries=self.oracle.query_count - self.queries_before,
            iterations=iterations,
            details={
                **self.details,
                **details,
                "solver": self.solver.stats.as_dict(),
                "key_solver": self.key_solver.stats.as_dict(),
            },
        )

    def run(self, between=None) -> AttackResult:
        """The loop; ``between(iteration)`` may return a result that ends it."""
        solver, budget = self.solver, self.budget
        iteration = 0
        while True:
            if budget is not None and budget.expired:
                return self.result(AttackStatus.TIMEOUT, iterations=iteration)
            if self.max_iterations is not None and iteration >= self.max_iterations:
                return self.result(AttackStatus.TIMEOUT, iterations=iteration)
            status = solver.solve(budget=budget)
            if status is SolveStatus.UNKNOWN:
                return self.result(AttackStatus.TIMEOUT, iterations=iteration)
            if status is SolveStatus.UNSAT:
                break
            iteration += 1
            pattern = {
                name: int(solver.model_value(var))
                for name, var in self.x_vars.items()
            }
            self.observe(pattern, self.oracle.query(pattern))
            self.telemetry.iteration(
                "cegis",
                iteration,
                oracle_queries=self.oracle.query_count - self.queries_before,
                conflicts=solver.stats.conflicts,
            )
            if between is not None:
                outcome = between(iteration)
                if outcome is not None:
                    return outcome
        with self._stage("key_extraction"):
            status, key = self.extract_key()
        return self.result(status, key=key, iterations=iteration)


def sat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the SAT attack on a locked netlist with oracle access."""
    # Random polarity decorrelates successive distinguishing inputs
    # (with pure phase saving the solver revisits the same corner of
    # the input space and progress stalls).
    return _Cegis(
        "sat-attack", locked, oracle, copies=2, miter=_outputs_differ,
        random_phase=0.2, budget=budget, max_iterations=max_iterations,
        telemetry=telemetry, staged=True,
    ).run()


def double_dip_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the Double DIP attack (2-distinguishing input patterns)."""
    return _Cegis(
        "double-dip", locked, oracle, copies=4, miter=_two_keys_differ,
        random_phase=0.1, budget=budget, max_iterations=max_iterations,
        telemetry=telemetry,
    ).run()


def appsat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    seed: RngLike = 0,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run AppSAT.

    Every :data:`SETTLE_ROUNDS` SAT iterations, the current candidate
    key is validated on :data:`QUERIES_PER_ROUND` random patterns; if
    its sampled error rate is at most :data:`ERROR_THRESHOLD` for one
    full round, the key is accepted as approximately correct.
    """
    rng = make_rng(seed)
    run = _Cegis(
        "appsat", locked, oracle, copies=2, miter=_outputs_differ,
        random_phase=0.1, budget=budget, max_iterations=max_iterations,
        telemetry=telemetry, details={"approximate": False},
    )
    input_names = locked.circuit_inputs
    output_names = locked.outputs

    def validation_round(iteration: int) -> AttackResult | None:
        if iteration % SETTLE_ROUNDS:
            return None
        # Random sampling against the oracle. The whole round is two
        # packed simulations — one sliced oracle call and one
        # keyed-netlist sweep with sample j in bit j — and the
        # disagreement set is a bitwise diff of packed words.
        status, key = run.extract_key()
        if key is None:
            return run.result(status, iterations=iteration)
        key_assignment = dict(zip(run.key_names, key))
        samples = [
            {name: rng.getrandbits(1) for name in input_names}
            for _ in range(QUERIES_PER_ROUND)
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
        run.telemetry.event(
            "validation_round",
            stage="validate",
            iteration=iteration,
            samples=QUERIES_PER_ROUND,
            disagreements=errors,
        )
        for j, sample in enumerate(samples):
            if (wrong >> j) & 1:
                run.observe(
                    sample,
                    {name: (observed_by_name[name] >> j) & 1 for name in output_names},
                )
        if errors / QUERIES_PER_ROUND <= ERROR_THRESHOLD:
            return run.result(
                AttackStatus.SUCCESS, key=key, iterations=iteration, approximate=True
            )
        return None

    return run.run(validation_round)
