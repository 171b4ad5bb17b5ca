"""The benchmark's outside-in tracer still sees every layer.

``attackbench/tracer.py`` rebinds module-level functions by identity
(``pipeline.fall_attack``, ``runner._verify_key``,
``equivalence.check_equivalence`` ...). The registry adapters and the
runner's success checks import those names when they first run, so a
wrapper is only seen if that import reads the rebound module attribute.
A missed wrapper would read zero, not fail, so this test runs one FALL
cell and one SAT attack under an installed tracer and checks that every
layer counted. It runs in a fresh interpreter because ``install``
patches classes process-wide.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {attackbench!r}]
import tracer
bench_tracer = tracer.Tracer()
bench_tracer.install()

from repro.attacks.engine import run_attack
from repro.attacks.oracle import IOOracle
from repro.circuit.library import paper_example_circuit
from repro.experiments.profiles import H_LABELS, Scale
from repro.experiments.runner import run_benchmark_attack
from repro.experiments.suite import build_benchmark
from repro.locking import lock_sfll_hd

scale = Scale(circuits=1, max_keys=6, max_gates=80, time_limit=10.0)
benchmark = build_benchmark(scale.profiles()[0], H_LABELS[0])
record = run_benchmark_attack(benchmark, "fall", 10.0, with_oracle=False)
assert record.solved, record
original = paper_example_circuit()
locked = lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))
assert run_attack("sat", locked.circuit, IOOracle(original)).succeeded

snapshot = bench_tracer.snapshot()
print({{name: span[0] for name, span in snapshot["spans"].items()}})
print(snapshot["counts"])
# FALL's cube confirmation may call the checker too; count the runner's
# key check on its own.
from repro.experiments import runner
assert runner._verify_key(benchmark, benchmark.locked.reveal_correct_key())
key_check = tracer.delta(bench_tracer.snapshot(), snapshot)["spans"]
print({{name: key_check[name][0] for name in ("runner.verify", "cec")}})
"""


def test_tracer_sees_lazily_imported_layers():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(
            src=str(ROOT / "src"), attackbench=str(ROOT / "attackbench"))],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    calls, counts, key_check = map(
        ast.literal_eval, done.stdout.splitlines()[-3:])
    # Not engine.family_run: the tracer wraps Attack.run once per
    # registry entry, so its count is a multiple of the runs.
    for span in ("engine.run_attack", "fall.attack", "runner.verify", "cec",
                 "sat.solve"):
        assert calls.get(span, 0) > 0, span
    assert counts["fall.candidates"] > 0
    assert key_check == {"runner.verify": 1, "cec": 1}
