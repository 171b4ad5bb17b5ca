"""The shared attack vocabulary: config and telemetry.

The paper's evaluation (§VI) is a comparison *across attack families* —
FALL vs. the SAT attack vs. AppSAT on the same locked benchmarks — and
the one-key-premise critique (Hu et al.) argues such comparisons are
only meaningful when success is judged uniformly. This module defines
what every family is handed:

- :class:`AttackConfig` — one declarative configuration replacing the
  divergent per-attack keyword plumbing (time limit, seed, jobs,
  iteration caps, checkpointing, FALL's analysis selection); it is
  plain, picklable data;
- :class:`TelemetryRecorder` — a streaming lifecycle-event sink (stage
  start/finish, iterations, oracle-query counters) whose snapshot is
  recorded into ``AttackResult.details['telemetry']`` under one schema.

The families themselves are the :class:`~repro.attacks.registry.Attack`
records of :mod:`repro.attacks.registry`; each runs as
``run(locked, oracle, config, budget, telemetry)``, so the run's live
state — its :class:`~repro.utils.timer.Budget` and its telemetry sink —
travels beside the config, never inside it. The engine layer
(:mod:`repro.attacks.engine`) drives them with lifecycle bookkeeping,
checkpoint/resume and portfolio racing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.timer import Stopwatch

#: Schema version of the ``details['telemetry']`` snapshot.
TELEMETRY_SCHEMA = 1

#: Hard cap on recorded events so unbounded attack loops cannot grow an
#: unbounded result object; overflow is counted, never silently lost.
MAX_TELEMETRY_EVENTS = 512


@dataclass(frozen=True)
class AttackConfig:
    """Declarative configuration shared by every registered attack.

    ``time_limit`` is the wall-clock budget in seconds (``None`` =
    unlimited), mirroring the paper's 1000 s per-run limit. ``jobs`` is
    the portfolio's worker count (``None`` = every usable core).
    ``analyses`` restricts FALL to the named functional
    analyses (the Figure 5 harness times each one separately); every
    other family ignores it. Each family's remaining tuning is a module
    constant beside its code, so one config can drive a whole portfolio.
    """

    h: int = 0
    time_limit: float | None = None
    max_iterations: int | None = None
    seed: int = 0
    jobs: int | None = None
    candidates: tuple[tuple[int, ...], ...] | None = None
    checkpoint_path: str | None = None
    analyses: tuple[str, ...] | None = None

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


class TelemetryRecorder:
    """Streaming lifecycle events with one uniform snapshot schema.

    Attacks emit through :meth:`event`, :meth:`count`, :meth:`iteration`
    and the :meth:`stage` context manager, whose scope's
    :meth:`_StageScope.record` adds fields to the closing ``stage_end``
    event, and the engine stores :meth:`snapshot` into
    ``AttackResult.details['telemetry']``::

        {"schema": 1,
         "events": [{"t": 0.01, "kind": "stage_start", "stage": "encode"},
                    {"t": 0.52, "kind": "iteration", "stage": "cegis",
                     "iteration": 3, "oracle_queries": 3}, ...],
         "dropped_events": 0,
         "stages": {"encode": 0.51, ...},       # seconds per stage
         "counters": {"iterations": 12, "oracle_queries": 12, ...}}

    Timestamps are seconds since the recorder started, so the stream is
    self-contained and JSON-safe. At most :data:`MAX_TELEMETRY_EVENTS`
    events are kept.
    """

    def __init__(self):
        self._stopwatch = Stopwatch()
        self._event_cap = MAX_TELEMETRY_EVENTS
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}
        self.stages: dict[str, float] = {}
        self.dropped_events = 0

    def event(self, kind: str, stage: str | None = None, **data) -> None:
        """Record one lifecycle event (bounded; overflow is counted)."""
        if len(self.events) >= self._event_cap:
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
        self._end_fields: dict = {}
        self._stopwatch: Stopwatch | None = None

    def __enter__(self) -> "_StageScope":
        self._stopwatch = Stopwatch()
        self._recorder.event("stage_start", stage=self._name, **self._data)
        return self

    def record(self, **fields) -> None:
        """Fields to add to this stage's ``stage_end`` event."""
        self._end_fields.update(fields)

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
            **self._end_fields,
        )
