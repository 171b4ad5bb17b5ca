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

The same holds one level down, for parameters: a parameter with a
default must be set by some call in those directories, or it is a knob
only tests turn. A call sets a parameter by keyword, by position,
through ``functools.partial`` or through a ``*``/``**`` splat. Calls are
matched by name: a function by its name, a method by the attribute
name, a class's ``__init__`` by the class name. Unlike a reference to a
definition, a call in the definition's own body counts: a recursive or
forwarding call sets the parameter as any other caller does.
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
    # The solver tests build and observe formulas through these.
    "repro/sat/solver.py:Solver.new_var",
    "repro/sat/solver.py:Solver.num_vars",
    "repro/sat/cnf.py:Cnf.copy",
    # The CLI's entry points: README's fall-lock and fall-attack, which
    # CI drives through `from repro.cli import main_lock, main_attack`.
    "repro/cli.py:main_lock",
    "repro/cli.py:main_attack",
}

#: Defaulted parameters that no call outside tests sets, each with its
#: reason. Parameters of the definitions in ``ALLOWED`` are exempt.
ALLOWED_PARAMETERS = {
    # main_experiments calls each artifact's main through a dispatch
    # table (`entry(scale, csv_path=...)`), which name matching cannot
    # follow.
    "repro/experiments/table1.py:main(csv_path)",
    "repro/experiments/fig5.py:main(csv_path)",
    "repro/experiments/fig6.py:main(csv_path)",
    "repro/experiments/summary.py:main(csv_path)",
    # README documents `fig5.main(scale, panel="m/8")` as the library
    # call that regenerates one Figure 5 panel.
    "repro/experiments/fig5.py:main(panel)",
    # Every attack's solver runs on the default seed; the solver's own
    # determinism tests replay searches recorded under other seeds.
    "repro/sat/solver.py:Solver(seed)",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
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


def _callables(tree: ast.Module):
    """(qualified name, name calls use, function node, is a method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    yield f"{node.name}.__init__", node.name, item, True
                elif not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _defaulted_parameters(function: ast.FunctionDef, method: bool):
    """(name, position or ``None`` if keyword-only) of defaulted params."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    if method and not static:
        positional = positional[1:]  # self or cls
    first_default = len(positional) - len(arguments.defaults)
    for index, argument in enumerate(positional):
        if index >= first_default:
            yield argument.arg, index
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls():
    """Callee name -> (positional args, keywords) of each call site."""
    calls: dict[str, list[tuple[list[ast.expr], list[ast.keyword]]]] = {}
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), list(node.args)
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                if name is not None:
                    calls.setdefault(name, []).append((args, node.keywords))
    return calls


def _sets(call, parameter: str, position: int | None) -> bool:
    args, keywords = call
    if any(k.arg is None or k.arg == parameter for k in keywords):
        return True
    if position is None:
        return False
    return len(args) > position or any(
        isinstance(arg, ast.Starred) for arg in args
    )


def _unset_parameters():
    calls = _calls()
    unset = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        for qualname, name, function, method in _callables(tree):
            if f"{module}:{qualname}" in ALLOWED:
                continue
            label = f"{module}:{qualname.removesuffix('.__init__')}"
            for parameter, position in _defaulted_parameters(function, method):
                if f"{label}({parameter})" in ALLOWED_PARAMETERS:
                    continue
                if not any(
                    _sets(call, parameter, position)
                    for call in calls.get(name, ())
                ):
                    unset.append(f"{label}({parameter})")
    return unset


def test_every_src_definition_is_reached_outside_tests():
    unreached = _scan()
    assert not unreached, (
        "definitions in src/ that only tests reach; delete them, move "
        "them into tests/, or allowlist them with a reason:\n  "
        + "\n  ".join(unreached)
    )


def test_every_defaulted_parameter_is_set_outside_tests():
    unset = _unset_parameters()
    assert not unset, (
        "defaulted parameters of src/ definitions that no call outside "
        "tests sets; delete them or allowlist them with a reason:\n  "
        + "\n  ".join(unset)
    )


def test_allowlist_names_existing_definitions():
    defined = set()
    parameters = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        defined.update(f"{module}:{name}" for name, _ in _definitions(tree))
        for qualname, _, function, method in _callables(tree):
            label = f"{module}:{qualname.removesuffix('.__init__')}"
            parameters.update(
                f"{label}({parameter})"
                for parameter, _ in _defaulted_parameters(function, method)
            )
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
    assert ALLOWED_PARAMETERS <= parameters, sorted(
        ALLOWED_PARAMETERS - parameters
    )
