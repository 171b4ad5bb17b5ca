"""Attack-stack benchmark: closed-loop workloads with pinned outcomes.

Run from the root of a checkout::

    python3 attackbench/run.py --workload sat-cegis --seed 1 --seconds 30 --trace 0
    python3 attackbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sat-cegis`` and ``suite-jobs2``
are the ones ``BENCHMARK.json`` lists and ``--workload all`` runs;
``fall-sweep`` runs the same way on request. A run sets up several times (fresh-interpreter import,
circuit generation, locking, worker-pool spawn) and reports the median
as ``setup_s``; it then runs the seed's held-out cells once, untimed,
and times passes over the committed cells until ``--seconds`` would be
exceeded (at least one pass); ``pass_s`` is their median. A pass takes
a few seconds, so a run has several. Where cells run one by one
(jobs=1) and two CPUs are free, the passes run in two replicas at once,
each pinned to its own CPU after the shared set-up, and ``pass_s`` is
the median over both: on a shared host each CPU slows down on its own,
for seconds to minutes at a time, and two CPUs sample that twice as
often as one.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then installs the outside-in tracer (``tracer.py``) and
reports the per-layer metrics of the traced passes plus the tracing
overhead. Every cell's status, keys and oracle queries (and, traced,
its solver and encoding counters) must equal ``pins.json``; any
deviation or wrong held-out key counts as failed and makes the command
exit 1. ``--write-pins`` records the committed outcomes instead (after
checking every key against the correct-key class).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and outcomes of the
run are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = ROOT / ".bench_out"
SETUP_REPS = 15
HOST_LOOP = 3_000_000
IMPORTS = ("repro.attacks.engine", "repro.experiments.runner",
           "repro.locking", "repro.circuit.random_circuits",
           "repro.circuit.library")


def host_loop_s() -> float:
    """A fixed pure-Python loop: a host-speed diagnostic, never a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_LOOP):
        total += i & 7
    return time.perf_counter() - start


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "n/a"


def import_s() -> float:
    """Seconds to import the attack stack in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in IMPORTS)
        + "; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def replica_cpus(workload, args) -> tuple[int, int] | None:
    """Two CPUs to pin the replicas of an untraced jobs=1 run to, or
    ``None`` where the run has a single replica."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload.jobs > 1 or args.trace or args.write_pins or len(cpus) < 2:
        return None
    return cpus[0], cpus[1]


def replicated(run, cpus) -> list:
    """Runs ``run`` in this process, pinned to ``cpus[0]``, and at the
    same time in a forked copy pinned to ``cpus[1]``; returns the copy's
    result. The copy is stopped and waited for on every path out."""
    here = os.sched_getaffinity(0)
    receive, send = multiprocessing.Pipe(duplex=False)

    def replica():
        os.sched_setaffinity(0, {cpus[1]})
        send.send(run())

    child = multiprocessing.get_context("fork").Process(target=replica)
    child.start()
    send.close()
    try:
        os.sched_setaffinity(0, {cpus[0]})
        run()
        try:
            theirs = receive.recv()
        except EOFError:
            raise RuntimeError(
                f"replica on CPU {cpus[1]} exited {child.exitcode} "
                "without a result") from None
    finally:
        os.sched_setaffinity(0, here)
        receive.close()
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join()
    return theirs


def workers_hwm_mb() -> float:
    """Summed peak RSS of the live pool workers (children of this process)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Per-layer metrics from a trace
# ----------------------------------------------------------------------
def _span(trace, *names):
    calls = total = self_s = 0.0
    for name in names:
        c, t, s = trace["spans"].get(name, (0, 0.0, 0.0))
        calls += c
        total += t
        self_s += s
    return calls, total, self_s


def layer_metrics(trace: dict, pass_s: float, jobs: int) -> dict:
    counts = trace["counts"]
    solve_calls, solve_s, _ = _span(trace, "sat.solve")
    clause_calls, clause_s, _ = _span(trace, "sat.add_clause")
    cof_calls, cof_s, _ = _span(trace, "tseitin.cofactor")
    enc_calls, enc_s, _ = _span(trace, "tseitin.encode")
    oracle_calls, oracle_s, _ = _span(
        trace, "oracle.query", "oracle.query_batch", "oracle.query_sliced")
    compile_calls, _, _ = _span(trace, "sim.compile_circuit")
    misses, _, _ = _span(trace, "sim.compile_build")
    _, compile_s, _ = _span(trace, "sim.compile_build", "sim.codegen")
    sweep_calls, sweep_s, _ = _span(
        trace, "sim.sweep_outputs", "sim.sweep_node_values",
        "sim.sweep_popcounts", "sim.sweep_truth_table")
    pooled, _, _ = _span(trace, "sim.pooled")
    _, support_s, _ = _span(trace, "analysis.support_table")
    cone_calls, cone_s, _ = _span(trace, "analysis.extract_cone")
    analyses = counts.get("fall.analyses", 0)
    propagations = counts.get("sat.propagations", 0)
    busy = _span(trace, "runner.task")[1] if jobs > 1 else 0.0
    engine_calls, _, engine_self = _span(trace, "engine.run_attack")
    cec_calls, cec_s, _ = _span(trace, "cec")
    return {
        "sat.solve_calls": solve_calls,
        "sat.solve_s": solve_s,
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.decisions": counts.get("sat.decisions", 0),
        "sat.propagations": propagations,
        "sat.props_per_s": propagations / solve_s if solve_s else 0.0,
        "sat.add_clause_calls": clause_calls,
        "sat.add_clause_s": clause_s,
        "tseitin.cofactor_calls": cof_calls,
        "tseitin.cofactor_s": cof_s,
        "tseitin.encode_calls": enc_calls,
        "tseitin.encode_s": enc_s,
        "tseitin.clauses": counts.get("tseitin.clauses", 0),
        "oracle.calls": oracle_calls,
        "oracle.patterns": counts.get("oracle.patterns", 0),
        "oracle.s": oracle_s,
        "sim.compile_calls": compile_calls,
        "sim.compile_misses": misses,
        "sim.compile_s": compile_s,
        "sim.sweep_calls": sweep_calls,
        "sim.sweep_patterns": counts.get("sim.sweep_patterns", 0),
        "sim.sweep_s": sweep_s,
        "sim.pooled_sweeps": pooled,
        "analysis.support_table_s": support_s,
        "analysis.extract_cone_calls": cone_calls,
        "analysis.extract_cone_s": cone_s,
        "fall.comparators_s": _span(trace, "fall.comparators")[1],
        "fall.support_match_s": _span(trace, "fall.support_match")[1],
        "fall.analysis_s": _span(trace, "fall.analysis")[1],
        "fall.confirm_s": _span(trace, "fall.confirm")[1],
        "fall.candidates": counts.get("fall.candidates", 0),
        "fall.analyses": analyses,
        "fall.confirm_ratio": (counts.get("fall.confirmed", 0) / analyses
                               if analyses else 0.0),
        "fall.prefilter_rejections": counts.get("fall.prefilter_rejections", 0),
        "cec.calls": cec_calls,
        "cec.s": cec_s,
        "runner.verify_s": _span(trace, "runner.verify")[1],
        "runner.task_busy_s": busy,
        "runner.idle_frac": 1.0 - busy / (jobs * pass_s) if jobs > 1 else 0.0,
        "engine.calls": engine_calls,
        "engine.self_s": engine_self,
    }


SELF_TIME_SPANS = ("sat.solve", "sat.add_clause", "tseitin.cofactor",
                   "tseitin.encode", "oracle.query", "sim.compile_build",
                   "sim.codegen", "sim.sweep_outputs", "sim.sweep_node_values",
                   "analysis.support_table", "fall.analysis", "cec")


def self_times(trace: dict) -> dict:
    return {f"self_s.{name}": _span(trace, name)[2] for name in SELF_TIME_SPANS}


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
PINNED = ("status", "keys", "queries", "solved", "unique")


def deviations(outcomes, pins, traced) -> list[tuple[str, str]]:
    """(label, message) for every cell that differs from its pin."""
    problems = []
    for outcome in outcomes:
        label = outcome["label"]
        pin = pins.get(label)
        if pin is None:
            problems.append((label, "no pin"))
            continue
        for field in PINNED:
            if outcome[field] != pin[field]:
                problems.append((label, f"{field} {outcome[field]!r} != "
                                        f"pinned {pin[field]!r}"))
        if traced and outcome["counters"] != pin["counters"]:
            problems.append((label, f"counters {outcome['counters']} != "
                                    f"pinned {pin['counters']}"))
    return problems


def write_pins(name, outcomes) -> list[tuple[str, str]]:
    """Check every committed FALL key against its correct-key class by CEC
    (``verify`` already checked the SAT-family keys), then pin."""
    import workloads as wl

    problems = []
    for outcome in outcomes:
        if not outcome["label"].endswith(":fall"):
            continue
        circuit, h_label = outcome["label"].split(":")[0][:-1].split("[")
        bench = wl.build_benchmark(wl.profile(circuit), h_label, 0)
        problem = wl.check_keys(bench.original, bench.locked,
                                outcome["status"], outcome["keys"])
        if problem:
            problems.append((outcome["label"], problem))
    if not problems:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins[name] = {
            o["label"]: {field: o[field] for field in PINNED + ("counters",)}
            for o in sorted(outcomes, key=lambda o: o["label"])
        }
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return problems


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    import tracer as tracing
    import workloads as wl
    from repro.circuit import sharding
    from repro.circuit.backends import resolve_backend

    workload = wl.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPS):
        imported = import_s()
        built = workload.setup()
        setups.append((imported, built))
    built = setups[-1][1].inputs
    setup_s = statistics.median(
        i + s.generate_s + s.lock_s + s.pool_spawn_s for i, s in setups)

    held_cells, held_problems = (0, []) if args.write_pins else \
        workload.held_out(args.seed)

    pins = {}
    if not args.write_pins:
        pins = json.loads(PINS.read_text()).get(workload.name, {})
    order = workload.order(built, args.seed)
    tracer = None
    passes = []
    start = time.perf_counter()

    def one_pass():
        host = host_loop_s()
        prepared = workload.prepare_pass(built, order)
        gc.collect()  # no garbage left over from set-up or the last pass
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        outcomes = workload.run_pass(prepared, tracer)
        seconds = time.perf_counter() - t0
        workers_mb = workers_hwm_mb() if workload.jobs > 1 else 0.0
        trace = None
        if tracer is not None:
            trace = tracing.delta(tracer.snapshot(), before)
            parent_self = sum(s for _, _, s in trace["spans"].values())
            closure_err = abs(parent_self - trace["top_s"])
            remainder = seconds - trace["top_s"]
            for outcome in outcomes:
                if outcome.get("worker_trace"):
                    tracing.merge(trace, outcome["worker_trace"])
            trace["closure_err_s"] = closure_err
            trace["remainder_s"] = remainder
        for outcome in outcomes:
            outcome.pop("worker_trace", None)
        problems = workload.verify(built, outcomes)
        passes.append({"seconds": seconds, "traced": tracer is not None,
                       "outcomes": outcomes, "trace": trace,
                       "workers_mb": workers_mb,
                       "host_loop_s": host, "loadavg": loadavg(),
                       "problems": problems})

    def budget_left():
        elapsed = time.perf_counter() - start
        return elapsed + passes[-1]["seconds"] <= args.seconds

    def run_passes():
        nonlocal tracer
        one_pass()
        if args.trace or args.write_pins:
            tracer = tracing.Tracer()
            tracer.install()
            one_pass()
        while budget_left() and not args.write_pins:
            one_pass()
        return passes

    cpus = replica_cpus(workload, args)
    try:
        if cpus is None:
            run_passes()
        else:
            passes.extend(replicated(run_passes, cpus))
    finally:
        sharding.shutdown_pool()

    measured = [p for p in passes if p["traced"] == bool(args.trace)]
    problems = [("held-out", problem) for problem in held_problems]
    if args.write_pins:
        traced = passes[-1]
        for a, b in zip(passes[0]["outcomes"], traced["outcomes"]):
            if {k: a[k] for k in PINNED} != {k: b[k] for k in PINNED}:
                problems.append((a["label"], "traced and untraced differ"))
        problems += traced["problems"]
        if not problems:
            problems = write_pins(workload.name, traced["outcomes"])
        for label, problem in problems:
            print(f"PROBLEM {label}: {problem}")
        if problems:
            return 1
        print(f"pinned {len(traced['outcomes'])} cells of {workload.name}")
        return 0

    failed = len(held_problems)
    first_counters = None
    for p in passes:
        bad = p["problems"] + deviations(p["outcomes"], pins, p["traced"])
        if p["traced"]:
            counters = [o["counters"] for o in p["outcomes"]]
            if first_counters not in (None, counters):
                bad.append(("traced passes", "counters differ"))
            first_counters = counters
        problems += bad
        failed += len({label for label, _ in bad})

    cells = measured[0]["outcomes"]
    attempted = held_cells + sum(len(p["outcomes"]) for p in passes)
    solved = sum(o["solved"] for o in cells)
    unique = sum(o["unique"] for o in cells)
    pass_s = statistics.median(p["seconds"] for p in measured)
    untraced_s = statistics.median(
        p["seconds"] for p in passes if not p["traced"])
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"passes {len(measured)} replicas {1 if cpus is None else 2} "
          f"backend {resolve_backend(None)} jobs {workload.jobs}")
    print("host loop_s " + " ".join(f"{p['host_loop_s']:.3f}" for p in passes)
          + f" loadavg {loadavg()}")
    print(f"held-out seed {args.seed}: {held_cells} cells, "
          f"{len(held_problems)} wrong")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted})")
    for label, problem in problems:
        print(f"PROBLEM {label}: {problem}")

    if args.trace:
        traced = measured
        per_pass = [layer_metrics(p["trace"], p["seconds"], workload.jobs)
                    | self_times(p["trace"]) for p in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]
        }
        metrics["setup.generate_s"] = statistics.median(
            s.generate_s for _, s in setups)
        metrics["setup.lock_s"] = statistics.median(s.lock_s for _, s in setups)
        metrics["setup.pool_spawn_s"] = statistics.median(
            s.pool_spawn_s for _, s in setups)
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.traced_pass_s"] = pass_s
        metrics["trace.overhead_s"] = pass_s - untraced_s
        metrics["trace.overhead_frac"] = (pass_s - untraced_s) / untraced_s
        metrics["trace.closure_err_s"] = max(
            p["trace"]["closure_err_s"] for p in traced)
        metrics["trace.remainder_frac"] = statistics.median(
            p["trace"]["remainder_s"] / p["seconds"] for p in traced)
        top = sorted(((k, v) for k, v in metrics.items()
                      if k.startswith("self_s.")), key=lambda kv: -kv[1])
        print("largest self times: " + ", ".join(
            f"{k[7:]} {v:.3f}s" for k, v in top[:5]))
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "oracle_queries": sum(o["queries"] for o in cells),
            "solved_frac": solved / len(cells),
            "unique_key_frac": unique / solved if solved else 0.0,
            # Each pass has a fresh pool, and which worker runs which cell
            # (so the workers' peaks) varies from pass to pass.
            "peak_rss_mb": self_rss_mb + statistics.median(
                p["workers_mb"] for p in measured),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"passes": passes, "metrics": metrics, "problems": problems},
        indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one command
# ----------------------------------------------------------------------
def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited {done.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sat-cegis", "fall-sweep", "suite-jobs2",
                                 "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the committed outcomes in pins.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"attackbench: no attack-stack sources under {SRC}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
