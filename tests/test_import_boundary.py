"""What a fresh interpreter loads, and how it exits.

The attack benchmark times the import of ``attackbench/run.py``'s
``IMPORTS`` in a fresh interpreter as part of ``setup_s``. Those
modules must load the attack families (so pool workers forked after
the import never compile them) and nothing a one-process run does not
execute: no pool, checkpoint or ``.bench`` I/O code. These tests check
module sets, not timings, so a byte-compiled tree passes the same way.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _benchmark_imports() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "attackbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "IMPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("attackbench/run.py defines no IMPORTS")


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         + code],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def test_benchmark_imports_load_only_what_a_run_executes():
    imports = _benchmark_imports()
    absent = ("concurrent.futures", "multiprocessing", "json", "hashlib",
              "repro.circuit.bench_io", "repro.attacks.checkpoint",
              "repro.circuit.spec")
    present = ("repro.attacks.fall.pipeline", "repro.attacks.cegis")
    done = _fresh(
        "".join(f"import {module}\n" for module in imports)
        + f"print([m for m in {absent + present!r} if m in sys.modules])\n"
    )
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    assert [m for m in absent if m in loaded] == []
    assert [m for m in present if m not in loaded] == []


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_pool_run_exits_cleanly():
    # A host that keeps both modules referenced (a test runner does)
    # clears their globals at teardown in reverse import order:
    # concurrent.futures.process, imported by the first pooled call,
    # goes first. A pool still alive then is collected with that
    # module's globals gone and prints "Exception ignored in ...
    # weakref_cb" on stderr, unless the pool was shut down at exit.
    done = _fresh(
        "from repro.circuit import sharding\n"
        "assert sharding.map_in_processes(abs, [-1, -2, -3], jobs=2) "
        "== [1, 2, 3]\n"
        "import multiprocessing, concurrent.futures.process\n"
        "sys.kept_to_teardown = (sharding, concurrent.futures.process)\n"
        "print([child.pid for child in multiprocessing.active_children()])\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    workers = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while not all(_gone(pid) for pid in workers):
        assert time.monotonic() < deadline, f"workers left running: {workers}"
        time.sleep(0.05)
