"""The persistent worker pool, and the simulation-layer sweep calls.

Task-level parallelism — suite cells (:func:`repro.experiments.runner.
run_suite`) and portfolio racers (:func:`repro.attacks.engine.
run_portfolio`) — runs on one shared
:class:`~concurrent.futures.ProcessPoolExecutor` that starts lazily and
persists across calls. The worker count is an explicit ``jobs``
argument: a positive int, or ``None`` for every usable CPU core (the
CLIs' ``--jobs`` parser turns ``auto`` into ``None``). ``jobs=1``, a
single item, or a caller that is itself a pool worker (or any daemonic
process) runs inline instead; worker processes never start nested
pools.

The ``sweep_*`` functions are the attack code's calls into bit-sliced
simulation. Each takes packed input words and a width and evaluates
through :meth:`~repro.circuit.compiled.CompiledCircuit.node_values` on
the calling process's cached compiled engine
(:func:`~repro.circuit.compiled.compile_circuit`).
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Mapping, Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import canonical_input_words, compile_circuit
from repro.errors import CircuitError


def cpu_jobs() -> int:
    """The *auto* worker count: usable CPU cores (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a jobs request to a concrete worker count.

    ``None`` means *auto* (:func:`cpu_jobs`); a count below 1 raises
    :class:`~repro.errors.CircuitError`.
    """
    if jobs is None:
        return cpu_jobs()
    if jobs < 1:
        raise CircuitError(f"jobs must be >= 1, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
# multiprocessing and concurrent.futures are imported inside the pool
# functions: a run that never starts the pool never loads them.
_IN_WORKER = False
_POOL = None  # the ProcessPoolExecutor, once started
_POOL_WORKERS = 0


def _init_worker() -> None:
    """Mark a pool worker: no nested pools, no inherited pool handles."""
    global _IN_WORKER, _POOL, _POOL_WORKERS
    _IN_WORKER = True
    _POOL = None
    _POOL_WORKERS = 0


def _get_pool(workers: int):
    """The shared executor, grown (never shrunk) to ``workers``.

    Starting it registers :func:`shutdown_pool` to run at exit (one
    registration however often the pool restarts), so the pool is shut
    down while ``concurrent.futures`` is still intact rather than
    collected during module teardown.
    """
    from concurrent.futures import ProcessPoolExecutor

    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        atexit.unregister(shutdown_pool)
        atexit.register(shutdown_pool)
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker
        )
        _POOL_WORKERS = workers
    return _POOL


def pool_is_running() -> bool:
    """Whether the persistent worker pool has been spun up."""
    return _POOL is not None


def pool_allowed() -> bool:
    """Whether this process may dispatch work to the pool.

    False inside our own pool workers (no nested pools) and inside any
    daemonic multiprocessing worker, where spawning children raises —
    such callers silently take the inline path instead.
    """
    import multiprocessing

    return not (_IN_WORKER or multiprocessing.current_process().daemon)


def shutdown_pool() -> None:
    """Tear the persistent pool down (it restarts lazily on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


def _run_sharded(fn, items: list, workers: int) -> list | None:
    """Map ``fn`` over ``items`` on the pool, results in item order.

    Returns ``None`` when the pool breaks (a worker was killed: OOM,
    segfault): the dead executor is torn down so the next pooled call
    starts a fresh one, and the caller finishes inline.
    """
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = _get_pool(workers)
        return list(pool.map(fn, items))
    except BrokenProcessPool:
        shutdown_pool()
        return None


def map_in_processes(fn, items: Sequence, jobs: int | None = None):
    """Order-preserving map over the persistent pool.

    ``fn`` and every item must be picklable. With one resolved worker
    (or at most one item, or from inside a pool worker) this degrades to
    a plain in-process loop, so callers need no special-casing.
    """
    items = list(items)
    workers = resolve_jobs(jobs)
    if workers > 1 and len(items) > 1 and pool_allowed():
        results = _run_sharded(fn, items, min(workers, len(items)))
        if results is not None:
            return results
    return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Sweeps on the cached compiled engine
# ----------------------------------------------------------------------
def sweep_outputs(
    circuit: Circuit, values: Mapping[str, int], width: int
) -> tuple[int, ...]:
    """Packed output words of one ``width``-pattern pass."""
    return compile_circuit(circuit).eval_outputs_sliced(values, width)


def sweep_node_values(
    circuit: Circuit,
    nodes: Sequence[str],
    values: Mapping[str, int],
    width: int,
) -> tuple[int, ...]:
    """Packed words of ``nodes`` from one ``width``-pattern pass."""
    return compile_circuit(circuit).node_values(nodes, values, width)


def sweep_popcounts(
    circuit: Circuit,
    values: Mapping[str, int],
    width: int,
) -> dict[str, int]:
    """Set-bit count of every node over one ``width``-pattern pass.

    The signal-probability workload (SPS).
    """
    nodes = circuit.nodes
    words = compile_circuit(circuit).node_values(nodes, values, width)
    return {node: word.bit_count() for node, word in zip(nodes, words)}


def sweep_truth_table(
    circuit: Circuit, node: str
) -> tuple[int, tuple[str, ...]]:
    """Exhaustive table of ``node`` over its own support.

    Returns ``(table, support)``: ``support`` is the cone's inputs in
    ``circuit.inputs`` order, and bit ``j`` of ``table`` is the node's
    value when support input ``i`` is bit ``i`` of ``j``. Only the cone
    is enumerated, so the 24-input limit applies to the cone, not the
    whole circuit.
    """
    cone = set(circuit.topological_order(targets=(node,)))
    support = tuple(name for name in circuit.inputs if name in cone)
    words = canonical_input_words(len(support))
    (table,) = compile_circuit(circuit).node_values(
        (node,), dict(zip(support, words)), 1 << len(support)
    )
    return table, support
