"""What a fresh interpreter loads, and how it exits.

The attack benchmark times the import of ``attackbench/run.py``'s
``IMPORTS`` in a fresh interpreter as part of ``setup_s``. Those
modules must load nothing a run may not execute: no attack family
(each registry adapter imports its own on first use), no SAT solver or
CNF encoder, no equivalence checker, and no pool, checkpoint or
``.bench`` I/O code. A run then loads only the family it executes.
These tests check module sets, not timings, so a byte-compiled tree
passes the same way.
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


#: Every attack family's modules, and the SAT/CEC stack they share.
_FAMILIES = ("repro.attacks.fall", "repro.attacks.cegis", "repro.attacks.sps",
             "repro.attacks.guess", "repro.attacks.key_confirmation")
_SAT_CEC = ("repro.sat.solver", "repro.circuit.tseitin",
            "repro.circuit.equivalence")


def _loaded(prefixes) -> str:
    """Code printing the loaded modules that are, or are inside, one of
    ``prefixes``."""
    return (
        f"print(sorted(m for m in sys.modules if any(m == p or "
        f"m.startswith(p + '.') for p in {tuple(prefixes)!r})))\n"
    )


def _printed(done: subprocess.CompletedProcess) -> list:
    assert done.returncode == 0, done.stderr
    return [ast.literal_eval(line) for line in done.stdout.splitlines()
            if line.startswith("[")]


def test_benchmark_imports_load_only_what_a_run_executes():
    imports = _benchmark_imports()
    absent = _FAMILIES + _SAT_CEC + (
        "concurrent.futures", "multiprocessing", "json", "hashlib",
        "repro.circuit.bench_io", "repro.attacks.checkpoint",
        "repro.circuit.spec")
    done = _fresh(
        "".join(f"import {module}\n" for module in imports) + _loaded(absent)
    )
    assert _printed(done) == [[]]


def test_a_run_loads_only_its_own_family():
    done = _fresh(
        "import contextlib, io\n"
        "from repro.cli import main_attack\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main_attack(['--list-attacks']) == 0\n"
        + _loaded(_FAMILIES)
        + "from repro.attacks.engine import run_attack\n"
        "from repro.attacks.oracle import IOOracle\n"
        "from repro.circuit.library import paper_example_circuit\n"
        "from repro.locking import lock_sfll_hd\n"
        "original = paper_example_circuit()\n"
        "locked = lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))\n"
        "result = run_attack('sat', locked.circuit, IOOracle(original))\n"
        "assert result.succeeded, result\n"
        + _loaded(_FAMILIES)
    )
    listed, after_sat = _printed(done)
    assert listed == []
    assert "repro.attacks.cegis" in after_sat
    assert [m for m in after_sat
            if m.startswith(("repro.attacks.fall", "repro.attacks.sps"))] == []


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
