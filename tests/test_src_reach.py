"""Every definition in ``src/`` is reached by code that runs outside tests.

An AST scan collects the top-level functions and classes of every module
under ``src/`` and the methods of those classes, then looks for their
names in ``src/``, ``attackbench/``, ``benchmarks/``, ``examples/`` and
``pyproject.toml``. A name counts as used when code loads it, reads it
as an attribute, or spells it as a whole string constant (a string
table such as ``aig._DECOMPOSABLE`` or a function the benchmark tracer
rebinds by name). Imports, ``__all__`` lists and the definition's own
body do not count, so a helper that only tests call is reported here
instead of growing back into the library.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USER_DIRS = ("src", "attackbench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions kept although only tests reach them, each with its reason.
ALLOWED = {
    # Observation points: the tests read state through these to check
    # the engine against an independent view of the same computation.
    "repro/circuit/simulate.py:simulate_pattern",
    "repro/circuit/simulate.py:truth_table",
    "repro/circuit/simulate.py:simulate_interpreted",
    "repro/sat/solver.py:Solver.model_dict",
    "repro/circuit/sharding.py:pool_is_running",
    "repro/circuit/aig.py:Aig.evaluate",
    "repro/sat/cnf.py:Cnf.evaluate",
    "repro/circuit/equivalence.py:EquivalenceResult.refuted",
    # The §VI-D IND-CPA game: its tests check the paper's claim that an
    # equivalence adversary always wins against SFLL-HDh.
    "repro/attacks/indcpa.py:play_game",
    "repro/attacks/indcpa.py:adversary_advantage",
    # The CLI's entry points: README's fall-lock and fall-attack, which
    # CI drives through `from repro.cli import main_lock, main_attack`.
    "repro/cli.py:main_lock",
    "repro/cli.py:main_attack",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if any(
                isinstance(d, ast.Name) and d.id == "register_attack"
                for d in node.decorator_list
            ):
                continue  # reached through the registry by name
            yield node.name, node
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _all_list_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _references(path: Path, tree: ast.Module):
    """(name, line) of every use of a name in one module."""
    skipped = _all_list_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and IDENTIFIER.fullmatch(node.value)
            and node.lineno not in skipped
        ):
            yield node.value, node.lineno


def _scan():
    uses: dict[str, list[tuple[Path, int]]] = {}
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _references(path, tree):
                uses.setdefault(name, []).append((path, line))
    pyproject = (ROOT / "pyproject.toml").read_text()
    for name in IDENTIFIER.findall(pyproject):
        uses.setdefault(name, []).append((ROOT / "pyproject.toml", 0))

    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        for qualname, node in _definitions(tree):
            label = f"{module}:{qualname}"
            if label in ALLOWED:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            name = qualname.rpartition(".")[2]
            if not any(
                not (where == path and line in own)
                for where, line in uses.get(name, ())
            ):
                unreached.append(label)
    return unreached


def test_every_src_definition_is_reached_outside_tests():
    unreached = _scan()
    assert not unreached, (
        "definitions in src/ that only tests reach; delete them, move "
        "them into tests/, or allowlist them with a reason:\n  "
        + "\n  ".join(unreached)
    )


def test_allowlist_names_existing_definitions():
    defined = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        defined.update(f"{module}:{name}" for name, _ in _definitions(tree))
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
