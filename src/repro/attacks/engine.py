"""The unified attack engine: lifecycle, checkpoints, portfolio racing.

:func:`run_attack` is the one entry point every consumer (CLI, suite
runner, benchmarks, tests) drives attacks through. On top of the raw
family functions it provides:

- **applicability** — preconditions (oracle present, key inputs, a
  candidate shortlist for key confirmation) become a uniform
  ``NOT_APPLICABLE`` result instead of per-family exceptions, and an
  oracle whose input or output names differ from the netlist's is an
  :class:`~repro.errors.AttackError` for every family;
- **lifecycle telemetry** — a fresh :class:`~repro.attacks.base.
  TelemetryRecorder` is passed to the attack's ``run`` beside its
  budget, and its snapshot (stage timings, iteration events,
  oracle-query / solver counters) is recorded into
  ``AttackResult.details['telemetry']`` under one schema;
- **checkpoint/resume** — with ``config.checkpoint_path``, the oracle
  transcript streams to JSON (flushed on timeout, on an exception from
  the attack and on completion) and a rerun resumes bit-exactly (see
  :mod:`repro.attacks.checkpoint`);
- **normalization** — results come back JSON-safe (``sanitized``),
  labelled with the registry name, and with ``key_names`` always
  populated from the locked netlist.

:func:`run_portfolio` races several registered attacks on one benchmark
through :func:`~repro.circuit.sharding.map_in_processes`, the persistent
worker pool shared with the suite runner; the same code runs at any
``jobs``, inline when there is one worker. Only an exact SUCCESS is
conclusive: a key the attack could not check (``details['approximate']``)
never ends a race. A conclusive racer sets the cancel events of the
racers *after* it in the requested order, which their cooperative
budgets poll; a racer whose event is set before it starts is skipped,
and racers before it run on. The winner is therefore the earliest
conclusive racer in requested order at any number of workers, whatever
the completion order. A racer's exception propagates to the caller at
any ``jobs``, and a pool that breaks (a worker killed) reruns the race
inline.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.attacks.base import AttackConfig, TelemetryRecorder
from repro.attacks.oracle import IOOracle, require_matching_oracle
from repro.attacks.registry import get_attack
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import (
    map_in_processes,
    pool_allowed,
    resolve_jobs,
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
    budget: Budget | None = None,
) -> AttackResult:
    """Run one registered attack with full engine lifecycle support.

    ``budget`` defaults to a fresh ``Budget(config.time_limit)``; the
    portfolio racer passes a cancellable one.
    """
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
    if oracle is not None:
        # For every family, so a portfolio's first racer, which always
        # runs, raises it at any jobs.
        require_matching_oracle(locked, oracle)

    telemetry = TelemetryRecorder()
    checkpoint_oracle = None
    run_oracle = oracle
    checkpoint_unsupported = False
    if config.checkpoint_path:
        if oracle is None or not attack.supports_checkpoint:
            # Wall-clock-dependent families (fall, guess, key-confirmation)
            # and oracle-less runs cannot replay a transcript bit-exactly;
            # record that the request was ignored instead of failing
            # later with a misleading replay-divergence error.
            checkpoint_unsupported = True
        else:
            # Imported here: json and hashlib load only for a run that
            # checkpoints, not in every suite worker.
            from repro.attacks.checkpoint import (
                CheckpointOracle,
                open_checkpoint,
            )
            from repro.circuit.spec import circuit_fingerprint

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

    if budget is None:
        budget = Budget(config.time_limit)
    try:
        with telemetry.stage("run", attack=attack.name):
            result = attack.run(locked, run_oracle, config, budget, telemetry)
    except BaseException:
        # Interrupted (Ctrl-C included): keep the transcript so far, so
        # a resume replays it instead of re-querying the oracle.
        if checkpoint_oracle is not None:
            checkpoint_oracle.flush()
        raise
    telemetry.set_counter("oracle_queries", result.oracle_queries)

    if not result.key_names:
        result.key_names = locked.key_inputs
    details = dict(result.details)
    if result.attack != attack.name:
        # Normalize to the registry name; keep the family's own label
        # (e.g. ``fall-hd2``) for human-readable reports.
        details["label"] = result.attack
        result.attack = attack.name
    details["telemetry"] = telemetry.snapshot()
    if checkpoint_unsupported:
        details["checkpoint"] = {"unsupported": True}
    elif checkpoint_oracle is not None:
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
    """A budget that also expires when its racer's cancel event fires.

    Attacks already poll ``budget.expired`` cooperatively (the solver
    checks every few hundred conflicts), so cancellation rides the
    existing mechanism: once the event is set, ``remaining`` collapses
    to zero and the attack unwinds with a TIMEOUT at its next check.
    Event polling is throttled to one round trip per
    :data:`_CANCEL_POLL_SECONDS` (an IPC call for a manager event).
    """

    def __init__(self, seconds, event):
        super().__init__(seconds)
        self._event = event
        self._cancelled = False
        self._last_poll = 0.0

    @property
    def remaining(self) -> float:
        if not self._cancelled:
            now = time.monotonic()
            if now - self._last_poll >= _CANCEL_POLL_SECONDS:
                self._last_poll = now
                try:
                    if self._event.is_set():
                        self._cancelled = True
                except (EOFError, OSError):
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
        return _RaceBudget(Budget.sub(self, seconds).seconds, self._event)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


def _conclusive(result: AttackResult) -> bool:
    return result.status is AttackStatus.SUCCESS and not result.approximate


def _portfolio_task(payload: tuple) -> AttackResult | None:
    """Run racer ``index`` unless a conclusive racer before it has
    already cancelled it (``None``: skipped).

    The benchmark is rebuilt from its specs, in a pool worker or inline
    alike. A conclusive result sets the cancel events of every racer
    after this one, never one before it.
    """
    from repro.circuit.spec import circuit_from_spec

    index, name, locked_spec, oracle_spec, config, cancels = payload
    if cancels[index].is_set():
        return None
    locked = circuit_from_spec(locked_spec)
    oracle = (
        IOOracle(circuit_from_spec(oracle_spec))
        if oracle_spec is not None
        else None
    )
    budget = _RaceBudget(config.time_limit, cancels[index])
    result = run_attack(name, locked, oracle, config, budget)
    if budget.cancelled and result.status is AttackStatus.TIMEOUT:
        result.details["cancelled"] = True
    elif _conclusive(result):
        for later in cancels[index + 1:]:
            later.set()
    return result


def run_portfolio(
    names: Sequence[str],
    locked: Circuit,
    oracle: IOOracle | None = None,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Race several registered attacks; the earliest conclusive one wins.

    Returns the winner's :class:`AttackResult` with a
    ``details['portfolio']`` summary of every racer (status, timing,
    query count, whether it was cancelled). When no racer concludes,
    the result with the strongest status (by ``SUCCESS > approximate
    SUCCESS > MULTIPLE_CANDIDATES > TIMEOUT > FAILED > NOT_APPLICABLE``,
    ties to requested order) is returned so callers always get the best
    available outcome.

    ``config.jobs`` (``None`` = every usable core) sets the number of
    pool workers; one worker runs the racers inline in the requested
    order. Either way a conclusive racer cancels only the racers after
    it, so the same winner is reported whenever the racers' own
    outcomes are deterministic, and an exception from any racer
    propagates.
    """
    from repro.circuit.spec import circuit_spec

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
    locked_spec = circuit_spec(locked)
    oracle_spec = circuit_spec(oracle.circuit) if oracle is not None else None
    manager = None
    if workers > 1 and pool_allowed():
        import multiprocessing

        # Cross-process events for racers in pool workers.
        manager = multiprocessing.Manager()
        cancels = [manager.Event() for _ in names]
    else:
        cancels = [threading.Event() for _ in names]
    payloads = [
        (index, name, locked_spec, oracle_spec, config, cancels)
        for index, name in enumerate(names)
    ]
    try:
        results = map_in_processes(_portfolio_task, payloads, workers)
    finally:
        if manager is not None:
            manager.shutdown()
    return _pick_winner(names, dict(zip(names, results)))


_STATUS_RANK = {
    AttackStatus.SUCCESS: 0,
    AttackStatus.MULTIPLE_CANDIDATES: 1,
    AttackStatus.TIMEOUT: 2,
    AttackStatus.FAILED: 3,
    AttackStatus.NOT_APPLICABLE: 4,
}


def _pick_winner(names, results) -> AttackResult:
    # An approximate SUCCESS ranks below an exact one and above
    # every other status. The first racer always runs: nothing before
    # it can cancel it.
    winner_name = min(
        (name for name in names if results[name] is not None),
        key=lambda name: (_STATUS_RANK[results[name].status],
                          results[name].approximate,
                          names.index(name)),
    )
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
            "cancelled": bool(result.details.get("cancelled")),
        }
    winner.details["portfolio"] = {
        "winner": winner_name,
        "attacks": summary,
        "conclusive": _conclusive(winner),
    }
    return winner.sanitized()
