"""The uniform attack interface: config, telemetry, and the protocol.

The paper's evaluation (§VI) is a comparison *across attack families* —
FALL vs. the SAT attack vs. AppSAT on the same locked benchmarks — and
the one-key-premise critique (Hu et al.) argues such comparisons are
only meaningful when success is judged uniformly. This module defines
the shared vocabulary that makes the attack layer uniform:

- :class:`AttackConfig` — one declarative configuration replacing the
  divergent per-attack keyword plumbing (budget, seed, jobs, iteration
  caps, checkpointing, telemetry sink, FALL's analysis selection);
- :class:`TelemetryRecorder` — a streaming lifecycle-event sink (stage
  start/finish, iterations, oracle-query counters) whose snapshot is
  recorded into ``AttackResult.details['telemetry']`` under one schema;
- :class:`Attack` — the protocol every registered family implements:
  a ``name``, an applicability check, and ``run(locked, oracle,
  config)`` returning an :class:`~repro.attacks.results.AttackResult`.

Concrete families are registered in :mod:`repro.attacks.registry`; the
engine layer (:mod:`repro.attacks.engine`) drives them with lifecycle
bookkeeping, checkpoint/resume and portfolio racing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace

from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult
from repro.circuit.circuit import Circuit
from repro.utils.timer import Budget, Stopwatch

#: Schema version of the ``details['telemetry']`` snapshot.
TELEMETRY_SCHEMA = 1

#: Hard cap on recorded events so unbounded attack loops cannot grow an
#: unbounded result object; overflow is counted, never silently lost.
MAX_TELEMETRY_EVENTS = 512


@dataclass(frozen=True)
class AttackConfig:
    """Declarative configuration shared by every registered attack.

    ``time_limit`` is the wall-clock budget in seconds (``None`` =
    unlimited), mirroring the paper's 1000 s per-run limit. ``budget``
    overrides it with an externally constructed :class:`Budget` — the
    portfolio engine uses this to inject cooperatively cancellable
    budgets. ``analyses`` restricts FALL to the named functional
    analyses (the Figure 5 harness times each one separately); every
    other family ignores it. Each family's remaining tuning is a module
    constant beside its code, so one config can drive a whole portfolio.
    """

    h: int = 0
    time_limit: float | None = None
    max_iterations: int | None = None
    seed: int = 0
    jobs: int | str | None = None
    candidates: tuple[tuple[int, ...], ...] | None = None
    checkpoint_path: str | None = None
    analyses: tuple[str, ...] | None = None
    telemetry: "TelemetryRecorder | None" = None
    budget: Budget | None = None

    def make_budget(self) -> Budget:
        """The run's budget: the injected one, else a fresh wall clock."""
        if self.budget is not None:
            return self.budget
        return Budget(self.time_limit)

    def determinism_key(self) -> dict:
        """The config fields a checkpoint must match to resume bit-exactly.

        Time and iteration caps are deliberately excluded: they only
        decide *where* a deterministic run stops, not which oracle
        queries it issues, so a resumed run may raise them freely.
        ``analyses`` is excluded because no checkpointable family reads
        it.
        """
        return {
            "h": self.h,
            "seed": self.seed,
            "candidates": [list(c) for c in self.candidates]
            if self.candidates is not None
            else None,
        }

    def stripped_for_worker(self) -> "AttackConfig":
        """A picklable copy for process shipping (no live sink/budget)."""
        return replace(self, telemetry=None, budget=None)


class TelemetryRecorder:
    """Streaming lifecycle events with one uniform snapshot schema.

    Attacks emit through three verbs — :meth:`event`, :meth:`count`,
    and the :meth:`stage` context manager — and the engine stores
    :meth:`snapshot` into ``AttackResult.details['telemetry']``::

        {"schema": 1,
         "events": [{"t": 0.01, "kind": "stage_start", "stage": "encode"},
                    {"t": 0.52, "kind": "iteration", "stage": "cegis",
                     "iteration": 3, "oracle_queries": 3}, ...],
         "dropped_events": 0,
         "stages": {"encode": 0.51, ...},       # seconds per stage
         "counters": {"iterations": 12, "oracle_queries": 12, ...}}

    Timestamps are seconds since the recorder started, so the stream is
    self-contained and JSON-safe.
    """

    def __init__(self, max_events: int = MAX_TELEMETRY_EVENTS):
        self._stopwatch = Stopwatch()
        self._max_events = max_events
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}
        self.stages: dict[str, float] = {}
        self.dropped_events = 0

    def event(self, kind: str, stage: str | None = None, **data) -> None:
        """Record one lifecycle event (bounded; overflow is counted)."""
        if len(self.events) >= self._max_events:
            self.dropped_events += 1
            return
        entry: dict = {"t": round(self._stopwatch.elapsed, 6), "kind": kind}
        if stage is not None:
            entry["stage"] = stage
        if data:
            entry.update(data)
        self.events.append(entry)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def iteration(self, stage: str, index: int, **data) -> None:
        """One attack-loop iteration (the per-iteration lifecycle event)."""
        self.count("iterations")
        self.event("iteration", stage=stage, iteration=index, **data)

    def stage(self, name: str, **data) -> "_StageScope":
        """Context manager emitting stage_start/stage_end with duration."""
        return _StageScope(self, name, data)

    def stage_done(self, name: str, seconds: float, **data) -> None:
        """Record an already-timed stage (for code with its own timers)."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds
        self.event("stage_end", stage=name, seconds=round(seconds, 6), **data)

    def set_counter(self, name: str, value: int) -> None:
        self.counters[name] = int(value)

    def snapshot(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA,
            "events": [dict(event) for event in self.events],
            "dropped_events": self.dropped_events,
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "counters": dict(self.counters),
        }


class _StageScope:
    def __init__(self, recorder: TelemetryRecorder, name: str, data: dict):
        self._recorder = recorder
        self._name = name
        self._data = data
        self._stopwatch: Stopwatch | None = None

    def __enter__(self) -> "_StageScope":
        self._stopwatch = Stopwatch()
        self._recorder.event("stage_start", stage=self._name, **self._data)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = self._stopwatch.elapsed if self._stopwatch else 0.0
        self._recorder.stages[self._name] = (
            self._recorder.stages.get(self._name, 0.0) + elapsed
        )
        self._recorder.event(
            "stage_end",
            stage=self._name,
            seconds=round(elapsed, 6),
            error=exc_type.__name__ if exc_type is not None else None,
        )


class NullTelemetry(TelemetryRecorder):
    """A no-op sink so attack code never branches on ``telemetry is None``."""

    def event(self, kind, stage=None, **data):  # pragma: no cover - trivial
        pass

    def count(self, name, amount=1):
        pass

    def set_counter(self, name, value):
        pass

    def stage_done(self, name, seconds, **data):
        pass

    def stage(self, name, **data):
        return _NULL_STAGE


class _NullStage:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_STAGE = _NullStage()

NULL_TELEMETRY = NullTelemetry()


def telemetry_or_null(
    telemetry: TelemetryRecorder | None,
) -> TelemetryRecorder:
    return telemetry if telemetry is not None else NULL_TELEMETRY


class Attack(abc.ABC):
    """One registered attack family behind the uniform interface.

    Subclasses set the class attributes and implement :meth:`run`.
    ``applicability`` returns ``None`` when the attack can run and a
    human-readable reason otherwise — the engine converts a non-``None``
    reason into a ``NOT_APPLICABLE`` result instead of raising, so suite
    sweeps can tabulate inapplicable cells uniformly.
    """

    #: Registry name (CLI ``--attack`` value).
    name: str = ""
    #: One-line description shown by ``fall-attack --list-attacks``.
    description: str = ""
    #: Whether the family cannot run at all without an I/O oracle.
    requires_oracle: bool = False
    #: Whether the family's oracle stream can be checkpointed/resumed
    #: (deterministic oracle-guided loops).
    supports_checkpoint: bool = False

    def applicability(
        self,
        locked: Circuit,
        oracle: IOOracle | None,
        config: AttackConfig,
    ) -> str | None:
        """``None`` if runnable, else the reason it is not."""
        if self.requires_oracle and oracle is None:
            return f"{self.name} requires an I/O oracle"
        if not locked.key_inputs and self.needs_key_inputs():
            return "circuit has no key inputs to attack"
        return None

    def needs_key_inputs(self) -> bool:
        return True

    @abc.abstractmethod
    def run(
        self,
        locked: Circuit,
        oracle: IOOracle | None,
        config: AttackConfig,
    ) -> AttackResult:
        """Execute the attack; always returns an :class:`AttackResult`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Attack {self.name}>"
