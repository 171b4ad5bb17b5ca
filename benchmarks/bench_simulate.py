"""Microbenchmarks for the compile-once simulation engine.

Times the three hot-path workload shapes of the FALL attack stack
against the interpreted reference (``simulate_interpreted``, the
pre-compilation implementation kept for differential testing):

- **wide_simulation** — one 4096-pattern bit-parallel pass over a
  mid-size netlist, repeated (the SPS / density-ranking shape);
- **oracle_queries** — many single-pattern output queries on the same
  circuit (the SAT-attack / key-confirmation oracle shape), plus the
  batched variant that packs all patterns into one wide pass;
- **prefilter_sweep** — repeated cofactor sweeps over candidate cones
  (the FALL unateness-prefilter shape);
- **sliced_sweep** — a 4096-pattern outputs sweep issued one pattern
  per call against one bit-sliced ``eval_outputs_sliced`` pass.

Run ``python benchmarks/bench_simulate.py`` from the repo root (with
``PYTHONPATH=src``); results are printed and written to
``benchmarks/BENCH_simulate.json`` (or ``--output PATH``) so the perf
trajectory is tracked PR over PR. ``benchmarks/bench_compare.py`` diffs
a fresh report against the committed baseline and fails CI when a
tracked speedup ratio regresses.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.attacks.fall.prefilter import passes_unateness_sim
from repro.attacks.oracle import IOOracle
from repro.circuit.analysis import extract_cone
from repro.circuit.compiled import compile_circuit, pack_patterns
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_interpreted

_REPEATS = 5
_MIN_SLICED_SPEEDUP = 40.0


def _best_of(fn, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best_of(*fns) -> list[float]:
    """Best-of-``_REPEATS`` timings of ``fns``, taken in turn per repeat.

    The host's speed drifts by half over seconds, so a ratio of two
    timings holds only when both were taken over the same stretch of
    time and over windows of similar length: callers loop a fast
    function until one call of it takes about as long as the slow one.
    """
    bests = [float("inf")] * len(fns)
    for _ in range(_REPEATS):
        for index, fn in enumerate(fns):
            bests[index] = min(bests[index], _best_of(fn, 1))
    return bests


def bench_wide_simulation() -> dict:
    circuit = generate_random_circuit("bench_wide", 24, 8, 600, seed=11)
    patterns = 4096
    rng = random.Random(0)
    values = {name: rng.getrandbits(patterns) for name in circuit.inputs}
    rounds = 10

    def interpreted():
        for _ in range(rounds):
            simulate_interpreted(circuit, values, width=patterns)

    engine = compile_circuit(circuit)  # compile outside the timed region
    nodes = circuit.nodes

    def compiled():
        for _ in range(rounds):
            engine.node_values(nodes, values, width=patterns)

    return {
        "workload": f"{rounds} x {patterns}-pattern full-netlist passes",
        "gates": circuit.num_gates,
        "interpreted_s": _best_of(interpreted),
        "compiled_s": _best_of(compiled),
    }


def bench_oracle_queries() -> dict:
    circuit = generate_random_circuit("bench_oracle", 20, 6, 400, seed=23)
    rng = random.Random(1)
    queries = [
        {name: rng.getrandbits(1) for name in circuit.inputs}
        for _ in range(1000)
    ]

    def interpreted():
        for pattern in queries:
            values = simulate_interpreted(circuit, pattern, width=1)
            tuple(values[o] for o in circuit.outputs)

    oracle = IOOracle(circuit)
    oracle.query(queries[0])  # warm the compiled outputs program
    # Rounds per timing, so each timing spans about as long as one
    # interpreted loop (see _interleaved_best_of).
    compiled_rounds, batched_rounds = 20, 50

    def compiled():
        for _ in range(compiled_rounds):
            for pattern in queries:
                oracle.query(pattern)

    def batched():
        for _ in range(batched_rounds):
            oracle.query_batch(queries)

    interpreted_s, compiled_s, batched_s = _interleaved_best_of(
        interpreted, compiled, batched
    )
    return {
        "workload": f"{len(queries)} single-pattern oracle queries",
        "gates": circuit.num_gates,
        "interpreted_s": interpreted_s,
        "compiled_s": compiled_s / compiled_rounds,
        "batched_s": batched_s / batched_rounds,
    }


def bench_prefilter_sweep() -> dict:
    circuit = generate_random_circuit("bench_prefilter", 16, 4, 300, seed=31)
    cones = [extract_cone(circuit, out) for out in circuit.outputs]
    patterns = 256

    def interpreted():
        # The pre-engine prefilter: two interpreted cofactor passes per
        # support variable per cone.
        for cone in cones:
            inputs = list(cone.inputs)
            output_node = cone.outputs[0]
            rng = random.Random(0)
            base = {name: rng.getrandbits(patterns) for name in inputs}
            mask = (1 << patterns) - 1
            for pivot in inputs:
                low = dict(base)
                low[pivot] = 0
                high = dict(base)
                high[pivot] = mask
                value_low = simulate_interpreted(
                    cone, low, width=patterns, targets=[output_node]
                )[output_node]
                value_high = simulate_interpreted(
                    cone, high, width=patterns, targets=[output_node]
                )[output_node]
                if (value_low & ~value_high & mask) and (
                    ~value_low & value_high & mask
                ):
                    break

    for cone in cones:
        compile_circuit(cone)  # warm the per-cone programs

    def compiled():
        for cone in cones:
            passes_unateness_sim(cone)

    return {
        "workload": f"unateness sweep over {len(cones)} cones",
        "gates": circuit.num_gates,
        "interpreted_s": _best_of(interpreted),
        "compiled_s": _best_of(compiled),
    }


def bench_sliced_sweep() -> dict:
    """The acceptance workload: 4096-pattern sweep, per-call vs sliced.

    ``scalar_compiled`` is the per-pattern shape — one width-1
    ``eval_outputs_sliced`` call per pattern on the compiled engine. The
    sliced timing runs the same 4096 patterns through one
    ``eval_outputs_sliced`` pass.
    """
    circuit = generate_random_circuit("bench_sliced", 24, 8, 600, seed=11)
    patterns = 4096
    rng = random.Random(2)
    rows = [
        {name: rng.getrandbits(1) for name in circuit.inputs}
        for _ in range(patterns)
    ]
    packed = pack_patterns(circuit.inputs, rows)
    engine = compile_circuit(circuit)
    engine.eval_outputs_sliced(rows[0], width=1)  # warm the program

    def scalar_compiled():
        for row in rows:
            engine.eval_outputs_sliced(row, width=1)

    # One sliced pass takes ~0.1 ms: time a block about as long as the
    # per-pattern loop (see _interleaved_best_of).
    sliced_rounds = 1000

    def sliced_python():
        for _ in range(sliced_rounds):
            engine.eval_outputs_sliced(packed, width=patterns)

    scalar_s, sliced_s = _interleaved_best_of(scalar_compiled, sliced_python)
    return {
        "workload": f"{patterns}-pattern outputs sweep, "
                    "one call per pattern vs one bit-sliced pass",
        "gates": circuit.num_gates,
        "scalar_compiled_s": scalar_s,
        "sliced_python_s": sliced_s / sliced_rounds,
    }


def bench_compile_cost() -> dict:
    circuit = generate_random_circuit("bench_compile", 24, 8, 600, seed=11)

    # Time an uncached compilation honestly via the class constructor.
    from repro.circuit.compiled import CompiledCircuit

    start = time.perf_counter()
    engine = CompiledCircuit(circuit)
    engine.node_values(circuit.nodes, {n: 1 for n in circuit.inputs}, 1)
    elapsed = time.perf_counter() - start
    return {
        "workload": "one-time compilation + first simulation",
        "gates": circuit.num_gates,
        "compile_and_first_run_s": elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_simulate.json",
        help="where to write the JSON report "
             "(default: benchmarks/BENCH_simulate.json)",
    )
    args = parser.parse_args(argv)
    suites = {
        "wide_simulation": bench_wide_simulation(),
        "oracle_queries": bench_oracle_queries(),
        "prefilter_sweep": bench_prefilter_sweep(),
        "sliced_sweep": bench_sliced_sweep(),
        "compile_cost": bench_compile_cost(),
    }
    for name, entry in suites.items():
        if "interpreted_s" in entry and "compiled_s" in entry:
            entry["speedup"] = round(
                entry["interpreted_s"] / entry["compiled_s"], 2
            )
        if "interpreted_s" in entry and "batched_s" in entry:
            entry["batched_speedup"] = round(
                entry["interpreted_s"] / entry["batched_s"], 2
            )
        if "scalar_compiled_s" in entry:
            entry["sliced_python_speedup"] = round(
                entry["scalar_compiled_s"] / entry["sliced_python_s"], 2
            )
    report = {
        "bench": "simulate",
        "python": sys.version.split()[0],
        "suites": suites,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    failures = [
        f"{name}: speedup {entry['speedup']}x below 3x"
        for name, entry in suites.items()
        if "speedup" in entry and entry["speedup"] < 3.0
    ]
    sliced = suites["sliced_sweep"]
    if sliced["sliced_python_speedup"] < _MIN_SLICED_SPEEDUP:
        failures.append(
            f"sliced_sweep: bit-sliced speedup "
            f"{sliced['sliced_python_speedup']}x below the "
            f"{_MIN_SLICED_SPEEDUP:g}x acceptance floor"
        )
    if failures:
        for failure in failures:
            print(f"WARNING: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
