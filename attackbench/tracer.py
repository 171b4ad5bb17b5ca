"""Outside-in per-layer tracing of the attack stack.

Nothing in ``src/`` knows about this module. :meth:`Tracer.install`
wraps each layer's public entry points from the outside:

- module-level functions are rebound by identity in every loaded
  ``repro.*`` module, because consumers import them with
  ``from x import f`` and hold their own reference;
- methods (``Solver.solve``, ``IOOracle.query`` ...) are patched on the
  class.

Every wrapper records a span: calls, inclusive seconds and self seconds
(inclusive minus the time covered by nested spans). Counters that only
the layer boundary can see (solver conflicts, clauses encoded, oracle
patterns, FALL report fields) are read before and after the call.

Spans live in memory; :meth:`Tracer.snapshot` copies them, and
:func:`delta` subtracts two snapshots, which is how one pass, one cell,
or one worker-side suite task is isolated. Pool workers forked after
:meth:`install` inherit the wrappers; ``run_suite_task`` ships the
worker's delta back attached to its ``RunRecord``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter

#: Attribute under which a worker-side trace delta rides on a RunRecord.
WORKER_TRACE_ATTR = "_bench_worker_trace"


def import_all_repro_modules() -> None:
    """Import every ``repro`` submodule so lazy imports get rebound too."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every ``repro.*`` namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


class Tracer:
    """In-memory span and counter accumulator for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: list[list[float]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before``/``after`` update counters."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before, after)
        _rebind_everywhere(original, wrapper)

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, before, after))

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "top_s": self.top_s,
        }

    # ------------------------------------------------------------------
    # The layers
    # ------------------------------------------------------------------
    def install(self) -> None:
        import_all_repro_modules()
        from repro.attacks import engine, oracle, registry
        from repro.attacks.fall import comparators, equivalence as fall_eq
        from repro.attacks.fall import pipeline, support_match
        from repro.circuit import analysis, compiled, equivalence, sharding
        from repro.circuit import tseitin
        from repro.experiments import runner
        from repro.sat import solver

        counts = self.counts

        # repro.sat.solver -------------------------------------------------
        def stats_before(args, kwargs):
            stats = args[0].stats
            return stats.conflicts, stats.decisions, stats.propagations

        def stats_after(state, args, kwargs, result):
            stats = args[0].stats
            counts["sat.conflicts"] += stats.conflicts - state[0]
            counts["sat.decisions"] += stats.decisions - state[1]
            counts["sat.propagations"] += stats.propagations - state[2]

        self.patch_method(solver.Solver, "solve", "sat.solve",
                          stats_before, stats_after)
        self.patch_method(solver.Solver, "add_clause", "sat.add_clause")

        # repro.circuit.tseitin --------------------------------------------
        def cnf_arg(args, kwargs):
            cnf = kwargs.get("cnf", args[1] if len(args) > 1 else None)
            return len(cnf.clauses) if cnf is not None else 0

        def clauses_after(state, args, kwargs, result):
            counts["tseitin.clauses"] += len(result.cnf.clauses) - state

        self.patch_function(tseitin, "encode_circuit", "tseitin.encode",
                            cnf_arg, clauses_after)
        self.patch_function(tseitin, "encode_under_assignment",
                            "tseitin.cofactor", cnf_arg, clauses_after)

        # repro.attacks.oracle ---------------------------------------------
        def one_pattern(state, args, kwargs, result):
            counts["oracle.patterns"] += 1

        def many_patterns(state, args, kwargs, result):
            counts["oracle.patterns"] += len(args[1])

        self.patch_method(oracle.IOOracle, "query", "oracle.query",
                          after=one_pattern)
        for attr in ("query_batch", "query_sliced"):
            self.patch_method(oracle.IOOracle, attr, "oracle." + attr,
                              after=many_patterns)

        # repro.circuit.compiled / repro.circuit.sharding ------------------
        self.patch_function(compiled, "compile_circuit", "sim.compile_circuit")
        self.patch_method(compiled.CompiledCircuit, "__init__",
                          "sim.compile_build")
        self.patch_method(compiled.CompiledCircuit, "_build_program",
                          "sim.codegen")

        def sweep_width(args, kwargs):
            width = kwargs.get("width", args[2] if len(args) > 2 else None)
            if width is None:
                patterns = args[1]
                width = len(patterns) if isinstance(patterns, (list, tuple)) else 0
            counts["sim.sweep_patterns"] += width

        for attr in ("sweep_outputs", "sweep_node_values"):
            # sweep_node_values takes (circuit, nodes, patterns, width).
            offset = 1 if attr == "sweep_node_values" else 0

            def before(args, kwargs, offset=offset):
                sweep_width(args[offset:], kwargs)

            self.patch_function(sharding, attr, "sim." + attr, before)

        def popcount_width(args, kwargs):
            counts["sim.sweep_patterns"] += kwargs.get("width", args[2])

        self.patch_function(sharding, "sweep_popcounts", "sim.sweep_popcounts",
                            popcount_width)
        self.patch_function(sharding, "sweep_truth_table",
                            "sim.sweep_truth_table")
        self.patch_function(sharding, "_run_sharded", "sim.pooled")

        # repro.circuit.analysis / repro.circuit.equivalence ----------------
        self.patch_function(analysis, "support_table", "analysis.support_table")
        self.patch_function(analysis, "extract_cone", "analysis.extract_cone")
        self.patch_function(equivalence, "check_equivalence", "cec")

        # repro.attacks.fall -----------------------------------------------
        def fall_report(state, args, kwargs, result):
            report = result.details.get("report")
            if report is None:
                return
            counts["fall.candidates"] += len(report.candidate_nodes)
            counts["fall.analyses"] += report.analyses_attempted
            counts["fall.prefilter_rejections"] += report.prefilter_rejections

        def confirmed(state, args, kwargs, result):
            counts["fall.confirmed"] += result is True

        self.patch_function(pipeline, "fall_attack", "fall.attack",
                            after=fall_report)
        self.patch_function(comparators, "find_comparators", "fall.comparators")
        self.patch_function(support_match, "candidate_strip_nodes",
                            "fall.support_match")
        self.patch_function(pipeline, "_analyze_candidate", "fall.analysis")
        self.patch_function(fall_eq, "confirm_cube", "fall.confirm",
                            after=confirmed)

        # repro.experiments.runner -----------------------------------------
        self.patch_function(runner, "_verify_key", "runner.verify")
        self.patch_function(runner, "_verify_reconstruction", "runner.verify")
        task = runner.run_suite_task
        traced_task = self.wrap("runner.task", task)
        tracer = self

        @functools.wraps(task)
        def shipping_task(suite_task):
            if not sharding._IN_WORKER:
                return traced_task(suite_task)
            before = tracer.snapshot()
            record = traced_task(suite_task)
            setattr(record, WORKER_TRACE_ATTR, delta(tracer.snapshot(), before))
            return record

        _rebind_everywhere(task, shipping_task)

        # repro.attacks.engine ---------------------------------------------
        self.patch_function(engine, "run_attack", "engine.run_attack")
        for family in registry.all_attacks():
            cls = type(family)
            if "run" in cls.__dict__:
                self.patch_method(cls, "run", "engine.family_run")


def delta(after: dict, before: dict) -> dict:
    """``after - before`` of two :meth:`Tracer.snapshot` results."""
    spans = {}
    for name, (calls, total, self_s) in after["spans"].items():
        b = before["spans"].get(name, (0, 0.0, 0.0))
        spans[name] = [calls - b[0], total - b[1], self_s - b[2]]
    counts = {
        name: value - before["counts"].get(name, 0)
        for name, value in after["counts"].items()
    }
    return {"spans": spans, "counts": counts,
            "top_s": after["top_s"] - before["top_s"]}


def merge(into: dict, other: dict) -> None:
    """Add snapshot ``other`` into ``into`` in place."""
    for name, values in other["spans"].items():
        slot = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            slot[i] += values[i]
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    into["top_s"] += other["top_s"]
