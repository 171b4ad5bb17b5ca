"""The persistent worker pool, and the simulation-layer sweep calls.

Task-level parallelism — suite cells (:func:`repro.experiments.runner.
run_suite`) and portfolio racers (:func:`repro.attacks.engine.
run_portfolio`) — runs on one shared
:class:`~concurrent.futures.ProcessPoolExecutor` that starts lazily and
persists across calls. The worker count is an explicit ``jobs``
argument: a positive int, or ``None``/``"auto"`` for every usable CPU
core. ``jobs=1``, a single item, or a caller that is itself a pool
worker (or any daemonic process) runs inline instead; worker processes
never start nested pools.

The ``sweep_*`` functions are the attack code's calls into bit-sliced
simulation: each evaluates on the calling process's cached compiled
engine (:func:`~repro.circuit.compiled.compile_circuit`).
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.errors import CircuitError


def parse_jobs(value: int | str | None) -> int | None:
    """Normalize a jobs request; ``None`` means *auto* (CPU count).

    Accepts a positive int, a positive-int string, ``"auto"``, or
    ``None``/empty (both auto). Anything else raises
    :class:`~repro.errors.CircuitError`.
    """
    if value is None:
        return None
    if isinstance(value, int):
        jobs = value
    else:
        text = value.strip().lower()
        if not text or text == "auto":
            return None
        try:
            jobs = int(text)
        except ValueError:
            raise CircuitError(
                f"invalid jobs value {value!r}: expected a positive "
                "integer or 'auto'"
            ) from None
    if jobs < 1:
        raise CircuitError(f"jobs must be >= 1, got {jobs}")
    return jobs


def cpu_jobs() -> int:
    """The *auto* worker count: usable CPU cores (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a jobs request to a concrete worker count."""
    parsed = parse_jobs(jobs)
    return cpu_jobs() if parsed is None else parsed


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
_IN_WORKER = False
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _pool_disallowed() -> bool:
    """Whether this process must not spawn (more) pool workers.

    True inside our own pool workers (no nested pools) and inside any
    daemonic multiprocessing worker, where spawning children raises —
    such callers silently take the inline path instead.
    """
    return _IN_WORKER or multiprocessing.current_process().daemon


def _init_worker() -> None:
    """Mark a pool worker: no nested pools, no inherited pool handles."""
    global _IN_WORKER, _POOL, _POOL_WORKERS
    _IN_WORKER = True
    _POOL = None
    _POOL_WORKERS = 0


def _call(fn, item):
    """Top-level apply helper (bound methods don't pickle portably)."""
    return fn(item)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker
        )
        _POOL_WORKERS = workers
    return _POOL


def pool_is_running() -> bool:
    """Whether the persistent worker pool has been spun up."""
    return _POOL is not None


def pool_executor(workers: int) -> ProcessPoolExecutor:
    """The persistent executor, grown to ``workers``, for submit-style
    consumers (the attack portfolio racer) that need futures rather than
    the order-preserving :func:`map_in_processes`. Callers must check
    :func:`pool_allowed` themselves."""
    return _get_pool(workers)


def pool_allowed() -> bool:
    """Whether this process may dispatch work to the pool."""
    return not _pool_disallowed()


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
    try:
        pool = _get_pool(workers)
        return list(pool.map(_call, [fn] * len(items), items))
    except BrokenProcessPool:
        shutdown_pool()
        return None


def map_in_processes(fn, items: Sequence, jobs: int | str | None = None):
    """Order-preserving map over the persistent pool.

    ``fn`` and every item must be picklable. With one resolved worker
    (or at most one item, or from inside a pool worker) this degrades to
    a plain in-process loop, so callers need no special-casing.
    """
    items = list(items)
    workers = resolve_jobs(jobs)
    if not (_pool_disallowed() or workers <= 1 or len(items) <= 1):
        results = _run_sharded(fn, items, min(workers, len(items)))
        if results is not None:
            return results
    return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Sweeps on the cached compiled engine
# ----------------------------------------------------------------------
def sweep_outputs(
    circuit: Circuit, patterns, width: int | None = None
) -> tuple[int, ...]:
    """:meth:`CompiledCircuit.eval_outputs_sliced` on the cached engine."""
    return compile_circuit(circuit).eval_outputs_sliced(patterns, width)


def sweep_node_values(
    circuit: Circuit,
    nodes: Sequence[str],
    patterns,
    width: int | None = None,
) -> tuple[int, ...]:
    """:meth:`CompiledCircuit.node_values_sliced` on the cached engine."""
    return compile_circuit(circuit).node_values_sliced(nodes, patterns, width)


def sweep_popcounts(
    circuit: Circuit,
    input_values: Mapping[str, int],
    width: int,
    targets: Sequence[str] | None = None,
) -> dict[str, int]:
    """:meth:`CompiledCircuit.node_popcounts` on the cached engine."""
    return compile_circuit(circuit).node_popcounts(input_values, width, targets)


def sweep_truth_table(
    circuit: Circuit, node: str
) -> tuple[int, tuple[str, ...]]:
    """:meth:`CompiledCircuit.truth_table` on the cached engine."""
    return compile_circuit(circuit).truth_table(node)
