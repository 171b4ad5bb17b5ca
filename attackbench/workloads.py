"""The benchmark's workloads and their output checks.

``sat-cegis`` and ``suite-jobs2`` are the measured set. ``fall-sweep``
(oracle-less FALL at jobs=1: the control on which the oracle and the
cofactor encoder stay idle) runs the same way on request; it is left
out of ``BENCHMARK.json`` because two workloads can each measure for
50 s within the benchmark's time budget where three could not, and the
host's run-to-run noise needs the longer runs. ``suite-jobs2`` still
runs oracle-less FALL with defender-side CEC key checks, through the
worker pool.

Every workload is a closed loop: a pass runs a fixed list of cells one
after another (``suite-jobs2`` hands the whole list to ``run_suite``
with two workers) and the next pass starts only after the previous one
finished. ``run.py`` runs the jobs=1 workloads in two such loops at
once, one per CPU.

The timed cells are a committed corpus: the same circuits, locks and
attack settings for every ``--seed``, so their outcomes and work
counters are pinned in ``pins.json`` and must repeat exactly. The seed
derives fresh held-out cells (new lock keys), which run outside the
timed region and are checked against the correct-key class, and it
permutes the order in which an in-process pass visits the cells.

Scale, time limits, iteration caps and ``jobs`` are passed explicitly;
``run.py`` removes ``REPRO_*`` variables from the environment before
any of this runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from repro.attacks.base import AttackConfig
from repro.attacks import engine
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit import sharding
from repro.circuit.compiled import compile_circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import exhaustive_input_values
from repro.experiments import suite as suite_module
from repro.experiments.profiles import TABLE1_PROFILES, CircuitProfile
from repro.experiments.runner import SuiteTask, run_benchmark_attack, run_suite
from repro.experiments.suite import LockedBenchmark, build_benchmark
from repro.locking import lock_sarlock, lock_ttlock
from repro.utils.timer import Budget
from tracer import WORKER_TRACE_ATTR, delta

TIME_LIMIT = 60.0
ITERATION_CAP = 40
# The timed SAT cells stop after this many DIP iterations, so a pass
# takes a few seconds and a run times many passes. The uncapped SAT
# attack on rand14/ttlock is checked once per run, untimed.
SAT_ITERATION_CAP = 120
RAND14_TTLOCK_SAT_QUERIES = 369
# An approximate key (AppSAT's approximate results, every Double-DIP
# key) may disagree with the oracle on this share of input patterns
# (the e2e corpus tolerance) or on up to this many points of the key
# space, whichever allows more: Double-DIP stops once no input rules
# out two wrong keys at a time, and AppSAT's random samples miss a
# point-function error of 2/2^k on small keys.
APPROXIMATE_ERROR = 0.02
APPROXIMATE_KEY_POINTS = 2
# Up to this many circuit inputs a key is checked by exhaustive
# bit-sliced simulation; wider circuits use SAT-based CEC.
EXHAUSTIVE_INPUTS = 20
HELD_OUT_OFFSET = 1000


def profile(name: str) -> CircuitProfile:
    """A Table I profile at the default laptop scale (key <= 16, gates <= 400)."""
    base = next(p for p in TABLE1_PROFILES if p.name == name)
    return replace(
        base,
        key_width=min(base.key_width, 16),
        num_gates=min(base.num_gates, 400),
        num_inputs=min(base.num_inputs, 64),
        num_outputs=min(base.num_outputs, 16),
    )


# ----------------------------------------------------------------------
# Key checks (outside the timed region)
# ----------------------------------------------------------------------
def key_error(original, locked, key) -> float:
    """Share of input patterns on which ``key`` gives a wrong output.

    Exhaustive when the circuit is narrow enough, else 0.0 or 1.0 from
    a CEC proof.
    """
    unlocked = locked.unlocked_with(key)
    if len(original.inputs) <= EXHAUSTIVE_INPUTS:
        values, width = exhaustive_input_values(original.inputs)
        want = compile_circuit(original).eval_outputs_sliced(values, width=width)
        got = compile_circuit(unlocked).eval_outputs_sliced(values, width=width)
        wrong = 0
        for expected, actual in zip(want, got):
            wrong |= expected ^ actual
        return wrong.bit_count() / width
    result = check_equivalence(original, unlocked, budget=Budget(TIME_LIMIT))
    return 0.0 if result.proved else 1.0


def max_key_error(family: str, approximate: bool, key_width: int) -> float:
    """The error share a family's SUCCESS key may have and still be right."""
    if family == "double-dip" or approximate:
        return max(APPROXIMATE_ERROR, APPROXIMATE_KEY_POINTS / 2 ** key_width)
    return 0.0


def check_keys(original, locked, status, keys, limit=0.0) -> str | None:
    """Why the reported keys are wrong, or ``None`` when they are right.

    A SUCCESS key must lie in the correct-key class, or within ``limit``
    of it for approximate attacks; a shortlist must contain a correct
    key.
    """
    if status == AttackStatus.SUCCESS.value and keys:
        error = key_error(original, locked, keys[0])
        if error > limit:
            return f"key {keys[0]} wrong on {error:.4f} of patterns"
    if status == AttackStatus.MULTIPLE_CANDIDATES.value:
        if not any(key_error(original, locked, k) == 0.0 for k in keys):
            return "no correct key in the shortlist"
    return None


def _fresh(locked):
    return replace(locked, circuit=locked.circuit.copy())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Setup:
    """What one set-up produced and how long each step took."""

    inputs: object
    generate_s: float = 0.0
    lock_s: float = 0.0
    pool_spawn_s: float = 0.0


class Workload:
    name = ""
    jobs = 1

    def setup(self) -> Setup:
        raise NotImplementedError

    def labels(self, built) -> list[str]:
        raise NotImplementedError

    def order(self, built, seed: int) -> list[str]:
        """The seed's visiting order of the committed cells."""
        order = self.labels(built)
        random.Random(seed).shuffle(order)
        return order

    def prepare_pass(self, built, order):
        """Untimed: fresh circuits (and workers) for one pass."""
        raise NotImplementedError

    def run_pass(self, prepared, tracer=None) -> list[dict]:
        """Timed: one pass; one outcome dict per cell, in ``order``."""
        raise NotImplementedError

    def verify(self, built, outcomes) -> list[tuple[str, str]]:
        """Untimed: key checks of one pass; (label, problem) pairs."""
        return []

    def held_out(self, seed: int) -> tuple[int, list[str]]:
        """Untimed: fresh seed-derived cells; (cells run, problems)."""
        raise NotImplementedError


def _snapshot(tracer):
    return tracer.snapshot() if tracer is not None else None


def _cell_counters(tracer, before) -> dict | None:
    if tracer is None:
        return None
    return counters_of(delta(tracer.snapshot(), before))


def counters_of(trace: dict) -> dict:
    """The work counters pinned per cell (exact across runs)."""
    counts = trace["counts"]
    return {
        name: counts.get(name, 0)
        for name in ("sat.conflicts", "sat.propagations", "tseitin.clauses",
                     "oracle.patterns")
    }


class SatCegis(Workload):
    """SAT (capped), AppSAT and Double-DIP on the seeded e2e-corpus cells."""

    name = "sat-cegis"
    families = (("sat", SAT_ITERATION_CAP), ("appsat", ITERATION_CAP),
                ("double-dip", ITERATION_CAP))

    def setup(self) -> Setup:
        start = time.perf_counter()
        originals = {
            "paper": paper_example_circuit(),
            "rand14": generate_random_circuit("corpus14", 14, 4, 110, seed=21),
            "rand10": generate_random_circuit("corpus10", 10, 3, 70, seed=31),
        }
        generated = time.perf_counter()
        locks = {
            "paper/ttlock": lock_ttlock(originals["paper"], cube=(1, 0, 0, 1)),
            "rand14/ttlock": lock_ttlock(originals["rand14"], key_width=10,
                                         seed=5),
            "rand10/sarlock": lock_sarlock(originals["rand10"], key_width=8,
                                           seed=9),
        }
        locked = time.perf_counter()
        return Setup((originals, locks), generated - start, locked - generated)

    def labels(self, built):
        _, locks = built
        return [f"{cell}:{family}" for cell in locks
                for family, _ in self.families]

    def prepare_pass(self, built, order):
        originals, locks = built
        prepared = []
        for label in order:
            cell, family = label.split(":")
            original = originals[cell.split("/")[0]]
            prepared.append((label, family, original.copy(),
                             locks[cell].circuit.copy()))
        return prepared

    def _run_cell(self, family, original, locked, capped=True):
        cap = dict(self.families)[family] if capped else None
        config = AttackConfig(time_limit=TIME_LIMIT, max_iterations=cap,
                              jobs=1)
        # Through the module, so a traced run sees the engine span.
        return engine.run_attack(family, locked, IOOracle(original), config)

    def run_pass(self, prepared, tracer=None):
        outcomes = []
        for label, family, original, locked in prepared:
            before = _snapshot(tracer)
            result = self._run_cell(family, original, locked)
            outcomes.append({
                "label": label,
                "status": result.status.value,
                "keys": [list(result.key)] if result.key is not None
                else [list(k) for k in result.candidates],
                "queries": result.oracle_queries,
                "approximate": bool(result.details.get("approximate", False)),
                "counters": _cell_counters(tracer, before),
            })
        return outcomes

    def verify(self, built, outcomes):
        originals, locks = built
        problems = []
        for outcome in outcomes:
            cell = outcome["label"].split(":")[0]
            original = originals[cell.split("/")[0]]
            family = outcome["label"].split(":")[1]
            limit = max_key_error(family, outcome["approximate"],
                                  locks[cell].key_width)
            problem = check_keys(original, locks[cell], outcome["status"],
                                 outcome["keys"], limit)
            # Solved means an exactly correct key; approximate AppSAT and
            # Double-DIP keys can pass the check above without it.
            outcome["solved"] = (
                outcome["status"] == AttackStatus.SUCCESS.value
                and bool(outcome["keys"])
                and key_error(original, locks[cell], outcome["keys"][0]) == 0.0
            )
            outcome["unique"] = outcome["solved"]
            if problem:
                problems.append((outcome["label"], problem))
        return problems

    def held_out(self, seed):
        """The seed's held-out cells, plus the uncapped SAT attack on the
        committed rand14/ttlock cell, whose query count is pinned."""
        problems = []
        original = generate_random_circuit("corpus14", 14, 4, 110, seed=21)
        locked = lock_ttlock(original, key_width=10, seed=5)
        result = self._run_cell("sat", original.copy(), locked.circuit.copy(),
                                capped=False)
        if result.oracle_queries != RAND14_TTLOCK_SAT_QUERIES:
            problems.append(f"rand14/ttlock uncapped sat: "
                            f"{result.oracle_queries} queries, pinned "
                            f"{RAND14_TTLOCK_SAT_QUERIES}")
        keys = [list(result.key)] if result.key is not None else []
        problem = check_keys(original, locked, result.status.value, keys)
        if problem or result.status is not AttackStatus.SUCCESS:
            problems.append(f"rand14/ttlock uncapped sat: "
                            f"{problem or result.status.value}")

        original = generate_random_circuit("corpus10", 10, 3, 70, seed=31)
        locked = lock_ttlock(original, key_width=6,
                             seed=HELD_OUT_OFFSET + seed)
        for family, _ in self.families:
            result = self._run_cell(family, original.copy(),
                                    locked.circuit.copy())
            keys = ([list(result.key)] if result.key is not None
                    else [list(k) for k in result.candidates])
            if family == "sat" and result.status is not AttackStatus.SUCCESS:
                problems.append(f"held-out sat: {result.status.value}")
            limit = max_key_error(
                family, bool(result.details.get("approximate", False)),
                locked.key_width)
            problem = check_keys(original, locked, result.status.value, keys,
                                 limit)
            if problem:
                problems.append(f"held-out {family}: {problem}")
        return 1 + len(self.families), problems


def _record_outcome(record) -> dict:
    keys = [list(k) for k in record.details.get("candidate_keys", ())]
    return {
        "label": f"{record.benchmark}:{record.attack}",
        "status": record.status.value,
        "keys": keys,
        "queries": record.oracle_queries,
        "solved": bool(record.solved),
        "unique": bool(record.solved) and record.shortlist_size <= 1,
    }


class FallSweep(Workload):
    """Oracle-less FALL plus defender-side verification (paper §VI-B)."""

    name = "fall-sweep"
    cells = (("c432", "hd0"), ("c432", "m/8"), ("c432", "m/4"),
             ("apex2", "hd0"), ("apex2", "m/8"))

    def setup(self) -> Setup:
        suite_module._original_for.cache_clear()
        start = time.perf_counter()
        for name in dict(self.cells):
            suite_module._original_for(profile(name))
        generated = time.perf_counter()
        benches = {}
        for name, h_label in self.cells:
            bench = build_benchmark(profile(name), h_label, 0)
            benches[bench.name] = bench
        locked = time.perf_counter()
        suite_module._original_for.cache_clear()
        return Setup(benches, generated - start, locked - generated)

    def labels(self, built):
        return [f"{name}:fall" for name in built]

    def prepare_pass(self, built, order):
        prepared = []
        for label in order:
            bench = built[label.split(":")[0]]
            prepared.append(LockedBenchmark(
                profile=bench.profile,
                h_label=bench.h_label,
                h=bench.h,
                original=bench.original.copy(),
                locked=_fresh(bench.locked),
            ))
        return prepared

    def run_pass(self, prepared, tracer=None):
        outcomes = []
        for bench in prepared:
            before = _snapshot(tracer)
            record = run_benchmark_attack(bench, "fall", TIME_LIMIT,
                                          with_oracle=False)
            outcome = _record_outcome(record)
            outcome["counters"] = _cell_counters(tracer, before)
            outcomes.append(outcome)
        return outcomes

    def held_out(self, seed):
        bench = build_benchmark(profile("c432"), "m/8", HELD_OUT_OFFSET + seed)
        record = run_benchmark_attack(bench, "fall", TIME_LIMIT,
                                      with_oracle=False)
        outcome = _record_outcome(record)
        problem = check_keys(bench.original, bench.locked, outcome["status"],
                             outcome["keys"])
        return 1, ([f"held-out {outcome['label']}: {problem}"] if problem
                   else [])


def _noop(value):
    return value


def spawn_pool(jobs: int) -> float:
    """Fresh worker pool, started before anything is timed; its seconds."""
    sharding.shutdown_pool()
    start = time.perf_counter()
    sharding.map_in_processes(_noop, list(range(jobs)), jobs=jobs)
    return time.perf_counter() - start


class SuiteJobs2(Workload):
    """``run_suite(tasks, jobs=2)``: FALL oracle-less plus AppSAT."""

    name = "suite-jobs2"
    jobs = 2
    # Longest first, in a fixed order for every seed: the pool's schedule
    # (and so its load imbalance) must not change with the seed. A pass
    # takes a few seconds, so a run times several, and no cell takes more
    # than a quarter of a pass, so the two workers share the work evenly
    # even when one CPU runs slower than the other.
    cells = (("ex1010", "m/8", "appsat"), ("c1908", "hd0", "fall"),
             ("c432", "hd0", "fall"), ("apex2", "m/8", "fall"),
             ("apex2", "hd0", "fall"), ("c432", "hd0", "appsat"),
             ("apex2", "hd0", "appsat"), ("apex4", "m/8", "appsat"))

    @staticmethod
    def _tasks(cells, lock_seed):
        # FALL runs oracle-less (the paper's headline); AppSAT needs one.
        return [SuiteTask(profile(name), h_label, TIME_LIMIT, attack=attack,
                          with_oracle=attack != "fall", lock_seed=lock_seed)
                for name, h_label, attack in cells]

    def setup(self) -> Setup:
        tasks = {f"{t.profile.name}[{t.h_label}]:{t.attack}": t
                 for t in self._tasks(self.cells, 0)}
        return Setup(tasks, pool_spawn_s=spawn_pool(self.jobs))

    def labels(self, built):
        return list(built)

    def order(self, built, seed):
        return self.labels(built)

    def prepare_pass(self, built, order):
        # Workers rebuild every benchmark from its profile seed; a fresh
        # pool per pass means their generation caches start cold.
        suite_module._original_for.cache_clear()
        spawn_pool(self.jobs)
        return [built[label] for label in order]

    def run_pass(self, prepared, tracer=None):
        records = run_suite(prepared, jobs=self.jobs)
        outcomes = []
        for record in records:
            trace = record.__dict__.pop(WORKER_TRACE_ATTR, None)
            outcome = _record_outcome(record)
            outcome["counters"] = counters_of(trace) if trace else None
            outcome["worker_trace"] = trace
            outcomes.append(outcome)
        return outcomes

    def held_out(self, seed):
        tasks = self._tasks((("c432", "hd0", "fall"),
                             ("ex1010", "m/8", "appsat")),
                            HELD_OUT_OFFSET + seed)
        spawn_pool(self.jobs)
        records = run_suite(tasks, jobs=self.jobs)
        problems = []
        for task, record in zip(tasks, records):
            outcome = _record_outcome(record)
            if task.attack == "fall":
                bench = build_benchmark(task.profile, task.h_label,
                                        task.lock_seed)
                problem = check_keys(bench.original, bench.locked,
                                     outcome["status"], outcome["keys"])
            elif record.status is not AttackStatus.SUCCESS:
                problem = f"status {record.status.value}"
            else:
                problem = None
            if problem:
                problems.append(f"held-out {outcome['label']}: {problem}")
        return len(tasks), problems


WORKLOADS = {w.name: w for w in (SatCegis(), FallSweep(), SuiteJobs2())}
