"""The unified attack engine: lifecycle, checkpoints, portfolio racing.

:func:`run_attack` is the one entry point every consumer (CLI, suite
runner, benchmarks, tests) drives attacks through. On top of the raw
family functions it provides:

- **applicability** — preconditions (oracle present, key inputs, a
  candidate shortlist for key confirmation) become a uniform
  ``NOT_APPLICABLE`` result instead of per-family exceptions;
- **lifecycle telemetry** — a :class:`~repro.attacks.base.
  TelemetryRecorder` is threaded into the attack, and its snapshot
  (stage timings, iteration events, oracle-query / solver counters) is
  recorded into ``AttackResult.details['telemetry']`` under one schema;
- **checkpoint/resume** — with ``config.checkpoint_path``, the oracle
  transcript streams to JSON and a rerun resumes bit-exactly (see
  :mod:`repro.attacks.checkpoint`);
- **normalization** — results come back JSON-safe (``sanitized``),
  labelled with the registry name, and with ``key_names`` always
  populated from the locked netlist.

:func:`run_portfolio` races several registered attacks on one benchmark
across the persistent worker pool (:mod:`repro.circuit.sharding`)
shared with the suite runner. The first conclusive (SUCCESS)
finisher sets a cross-process cancellation event; the other racers
observe it through their cooperative budgets and stop at their next
budget check. The reported winner is deterministic given seeds: among
conclusive results, the earliest attack in the requested order wins
(completion order never decides), and with one worker the race
degenerates to an in-order sequential run with early exit. A pool that
breaks (a worker killed) is torn down and the race finishes
sequentially.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.attacks.base import AttackConfig, TelemetryRecorder
from repro.attacks.checkpoint import CheckpointOracle, open_checkpoint
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import get_attack
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import (
    pool_allowed,
    pool_executor,
    resolve_jobs,
    shutdown_pool,
)
from repro.circuit.spec import (
    circuit_fingerprint,
    circuit_from_spec,
    circuit_spec,
)
from repro.errors import AttackError
from repro.utils.timer import Budget

#: How often (seconds) a racing budget polls the cross-process
#: cancellation event; bounds both the polling overhead and the
#: cancellation latency.
_CANCEL_POLL_SECONDS = 0.05


def run_attack(
    name: str,
    locked: Circuit,
    oracle: IOOracle | None = None,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Run one registered attack with full engine lifecycle support."""
    attack = get_attack(name)
    config = config or AttackConfig()
    reason = attack.applicability(locked, oracle, config)
    if reason is not None:
        return AttackResult(
            attack=attack.name,
            status=AttackStatus.NOT_APPLICABLE,
            key_names=locked.key_inputs,
            details={"reason": reason},
        ).sanitized()

    telemetry = config.telemetry or TelemetryRecorder()
    checkpoint_oracle: CheckpointOracle | None = None
    run_oracle = oracle
    checkpoint_unsupported = bool(
        config.checkpoint_path
        and not (oracle is not None and attack.supports_checkpoint)
    )
    if checkpoint_unsupported:
        # Wall-clock-dependent families (fall, guess, key-confirmation)
        # and oracle-less runs cannot replay a transcript bit-exactly;
        # record that the request was ignored instead of failing later
        # with a misleading replay-divergence error.
        telemetry.event(
            "checkpoint_unsupported",
            attack=attack.name,
            has_oracle=oracle is not None,
        )
    if (
        config.checkpoint_path
        and oracle is not None
        and attack.supports_checkpoint
    ):
        checkpoint = open_checkpoint(
            config.checkpoint_path,
            attack.name,
            circuit_fingerprint(locked),
            config.determinism_key(),
        )
        if checkpoint.completed and checkpoint.result is not None:
            finished = AttackResult.from_json_dict(checkpoint.result)
            finished.details.setdefault("checkpoint", {})[
                "already_completed"
            ] = True
            return finished
        checkpoint_oracle = CheckpointOracle(
            oracle, checkpoint, config.checkpoint_path
        )
        run_oracle = checkpoint_oracle
        telemetry.event(
            "checkpoint_resume"
            if checkpoint.queries
            else "checkpoint_start",
            recorded_queries=len(checkpoint.queries),
        )

    run_config = replace(config, telemetry=telemetry)
    with telemetry.stage("run", attack=attack.name):
        result = attack.run(locked, run_oracle, run_config)
    telemetry.set_counter("oracle_queries", result.oracle_queries)

    if not result.key_names:
        result.key_names = locked.key_inputs
    details = dict(result.details)
    if result.attack != attack.name:
        # Normalize to the registry name; keep the family's own label
        # (e.g. ``fall-hd2``) for human-readable reports.
        details["label"] = result.attack
        result.attack = attack.name
    if checkpoint_unsupported:
        details["checkpoint"] = {"unsupported": True}
    details["telemetry"] = telemetry.snapshot()
    if checkpoint_oracle is not None:
        details["checkpoint"] = {
            "path": config.checkpoint_path,
            "replayed_queries": checkpoint_oracle.replayed_queries,
            "live_queries": checkpoint_oracle.live_queries,
        }
    result.details = details
    result = result.sanitized()
    if checkpoint_oracle is not None:
        if result.status in (AttackStatus.TIMEOUT,):
            checkpoint_oracle.flush()
        else:
            checkpoint_oracle.finalize(result)
    return result


# ----------------------------------------------------------------------
# Portfolio racing
# ----------------------------------------------------------------------
class _RaceBudget(Budget):
    """A budget that also expires when the race's cancel event fires.

    Attacks already poll ``budget.expired`` cooperatively (the solver
    checks every few hundred conflicts), so cancellation rides the
    existing mechanism: once the event is set, ``remaining`` collapses
    to zero and the attack unwinds with a TIMEOUT at its next check.
    Event polling is throttled to one IPC round trip per
    :data:`_CANCEL_POLL_SECONDS`.
    """

    def __init__(self, seconds, event):
        super().__init__(seconds)
        self._event = event
        self._cancelled = False
        self._last_poll = 0.0

    @property
    def remaining(self) -> float:
        if not self._cancelled and self._event is not None:
            now = time.monotonic()
            if now - self._last_poll >= _CANCEL_POLL_SECONDS:
                self._last_poll = now
                try:
                    if self._event.is_set():
                        self._cancelled = True
                except (EOFError, BrokenPipeError, ConnectionError):
                    # The manager went away (race already torn down);
                    # treat it as cancellation.
                    self._cancelled = True
        if self._cancelled:
            return 0.0
        return Budget.remaining.fget(self)

    def sub(self, seconds: float | None = None) -> "Budget":
        """Race-aware child budgets.

        Attack stages derive slices with ``budget.sub(...)`` (FALL's
        geometric candidate slicing, guess's per-cone caps) and then
        poll only the child; a plain child would outlive a cancelled
        race for its whole slice, so children share the cancel event.
        """
        cap = self.remaining if seconds is None else min(
            seconds, self.remaining
        )
        if cap == float("inf"):
            return _RaceBudget(None, self._event)
        return _RaceBudget(cap, self._event)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


def _conclusive(result: AttackResult | None) -> bool:
    return result is not None and result.status is AttackStatus.SUCCESS


def _portfolio_task(payload: tuple) -> AttackResult | None:
    """Worker entry: rebuild the benchmark, run one racer, return result."""
    name, locked_spec, oracle_spec, config, cancel = payload
    locked = circuit_from_spec(locked_spec)
    oracle = (
        IOOracle(circuit_from_spec(oracle_spec))
        if oracle_spec is not None
        else None
    )
    budget = _RaceBudget(config.time_limit, cancel)
    config = replace(config, budget=budget)
    try:
        result = run_attack(name, locked, oracle, config)
    except AttackError:
        return None
    if budget.cancelled and result.status is AttackStatus.TIMEOUT:
        result.details["cancelled"] = True
    return result


def run_portfolio(
    names: Sequence[str],
    locked: Circuit,
    oracle: IOOracle | None = None,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Race several registered attacks; first conclusive result wins.

    Returns the winner's :class:`AttackResult` with a
    ``details['portfolio']`` summary of every racer (status, timing,
    query count, whether it was cancelled). When no racer concludes,
    the result with the strongest status (by ``SUCCESS >
    MULTIPLE_CANDIDATES > TIMEOUT > FAILED > NOT_APPLICABLE``, ties to
    requested order) is returned so callers always get the best
    available outcome.

    ``config.jobs`` (``None`` = every usable core) sets the number of
    pool workers. With one worker the attacks run sequentially in the
    requested order and the race stops at the first conclusive result —
    the fully deterministic mode; with more workers
    the same winner is reported whenever the racers' own outcomes are
    deterministic, because winner selection prefers requested order
    over completion order.
    """
    names = list(names)
    if not names:
        raise AttackError("portfolio needs at least one attack name")
    seen = set()
    for name in names:
        get_attack(name)  # typo check up front, before any work runs
        if name in seen:
            raise AttackError(f"attack {name!r} listed twice in portfolio")
        seen.add(name)
    config = config or AttackConfig()
    if config.checkpoint_path:
        raise AttackError(
            "checkpointing a portfolio is not supported; checkpoint "
            "individual attacks instead"
        )
    workers = min(resolve_jobs(config.jobs), len(names))
    results = None
    if workers > 1 and pool_allowed():
        try:
            results, cancelled = _race_in_processes(
                names, locked, oracle, config, workers
            )
        except BrokenProcessPool:
            # A worker died (OOM kill, segfault): drop the dead executor
            # so later calls start a fresh one, and rerun the race here.
            shutdown_pool()
    if results is None:
        results, cancelled = _race_sequentially(names, locked, oracle, config)
    return _pick_winner(names, results, cancelled)


def _race_sequentially(names, locked, oracle, config):
    results: dict[str, AttackResult | None] = {}
    skipped = False
    for name in names:
        if skipped:
            results[name] = None
            continue
        results[name] = run_attack(name, locked, oracle, config)
        if _conclusive(results[name]):
            skipped = True  # later racers never start: clean early exit
    return results, set()


def _race_in_processes(names, locked, oracle, config, workers):
    locked_spec = circuit_spec(locked)
    oracle_spec = (
        circuit_spec(oracle.circuit) if oracle is not None else None
    )
    shipped_config = config.stripped_for_worker()
    manager = multiprocessing.Manager()
    results: dict[str, AttackResult | None] = {name: None for name in names}
    cancelled: set[str] = set()
    try:
        cancel = manager.Event()
        pool = pool_executor(workers)
        futures = {
            pool.submit(
                _portfolio_task,
                (name, locked_spec, oracle_spec, shipped_config, cancel),
            ): name
            for name in names
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                name = futures[future]
                try:
                    results[name] = future.result()
                except BrokenProcessPool:
                    raise
                except Exception:
                    results[name] = None
                if _conclusive(results[name]) and not cancel.is_set():
                    cancel.set()
        for name, result in results.items():
            if (
                result is not None
                and result.details.get("cancelled")
            ):
                cancelled.add(name)
    finally:
        manager.shutdown()
    return results, cancelled


_STATUS_RANK = {
    AttackStatus.SUCCESS: 0,
    AttackStatus.MULTIPLE_CANDIDATES: 1,
    AttackStatus.TIMEOUT: 2,
    AttackStatus.FAILED: 3,
    AttackStatus.NOT_APPLICABLE: 4,
}


def _pick_winner(names, results, cancelled) -> AttackResult:
    ranked = sorted(
        (name for name in names if results[name] is not None),
        key=lambda name: (_STATUS_RANK[results[name].status],
                          names.index(name)),
    )
    if not ranked:
        raise AttackError("portfolio produced no results")
    winner_name = ranked[0]
    winner = results[winner_name]
    summary = {}
    for name in names:
        result = results[name]
        if result is None:
            summary[name] = {"status": "skipped"}
            continue
        summary[name] = {
            "status": result.status.value,
            "elapsed_seconds": result.elapsed_seconds,
            "oracle_queries": result.oracle_queries,
            "iterations": result.iterations,
            "cancelled": name in cancelled,
        }
    winner.details["portfolio"] = {
        "winner": winner_name,
        "attacks": summary,
        "conclusive": _conclusive(winner),
    }
    return winner.sanitized()
