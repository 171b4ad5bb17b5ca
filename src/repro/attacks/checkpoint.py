"""JSON checkpoint/resume for oracle-guided attacks.

The iterative oracle-guided attacks (SAT, AppSAT and Double DIP, all in
:mod:`repro.attacks.cegis`) are deterministic functions of their configuration *and* the oracle's
answers: the CDCL solver is seeded, every RNG is seeded, and dict
iteration order is deterministic. (FALL, guess and standalone key
confirmation are *not* checkpointable: their probe mining and budget
slicing truncate on wall-clock time, so their query prefix differs
between differently-timed runs — the registry marks them
``supports_checkpoint = False``.) The
learned state of such a run is therefore exactly its ordered I/O
transcript — every distinguishing pattern queried and the outputs
observed. A checkpoint persists that transcript (plus fingerprints of
the circuit and the determinism-relevant config) as JSON.

Resume replays the attack *from scratch* against the transcript: the
:class:`CheckpointOracle` serves recorded answers for as long as the
attack re-issues the recorded queries — no hardware oracle traffic —
and switches to live querying (appending to the transcript) when the
recording runs out. Because the attack is deterministic, the replayed
prefix regenerates the identical solver state the interrupted run had,
so the resumed run recovers the identical key after the identical total
iteration count, and only the *remaining* queries hit the real oracle.
A replay divergence (wrong circuit, changed seed, nondeterminism) is
detected on the first mismatching query and raised loudly instead of
silently corrupting the resume.

Checkpoints of completed runs additionally embed the final serialized
:class:`~repro.attacks.results.AttackResult`, so re-running a finished
checkpoint returns instantly without touching the oracle at all.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.attacks.oracle import IOOracle
from repro.errors import AttackError

CHECKPOINT_SCHEMA = 1

#: Minimum seconds between transcript flushes. The full transcript is
#: rewritten on each flush, so per-query flushing would make a
#: 2^k-query attack quadratic in file I/O; throttling bounds the loss on
#: a hard crash to the last interval's queries — which a resume simply
#: re-issues live (the replayed prefix stays bit-exact). An exception
#: raised through the engine (``KeyboardInterrupt`` included) is not a
#: hard crash: the engine flushes before it propagates.
ADAPTIVE_FLUSH_SECONDS = 0.5


class CheckpointError(AttackError):
    """A checkpoint could not be loaded, matched, or replayed."""


@dataclass
class Checkpoint:
    """Persistent state of one (attack, circuit, config) run."""

    attack: str
    circuit_fingerprint: str
    config_key: dict
    queries: list[dict] = field(default_factory=list)
    completed: bool = False
    result: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "attack": self.attack,
            "circuit_fingerprint": self.circuit_fingerprint,
            "config_key": self.config_key,
            "queries": self.queries,
            "completed": self.completed,
            "result": self.result,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Checkpoint":
        schema = data.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema!r} "
                f"(this build reads schema {CHECKPOINT_SCHEMA})"
            )
        return cls(
            attack=data["attack"],
            circuit_fingerprint=data["circuit_fingerprint"],
            config_key=data["config_key"],
            queries=list(data.get("queries", [])),
            completed=bool(data.get("completed", False)),
            result=data.get("result"),
        )


def load_checkpoint(path: str) -> Checkpoint | None:
    """Load a checkpoint, or ``None`` when the file does not exist."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"unreadable checkpoint {path!r}: {error}"
        ) from error
    return Checkpoint.from_json_dict(data)


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically persist a checkpoint (write temp file, then rename)."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(checkpoint.to_json_dict(), handle)
    os.replace(tmp_path, path)


def open_checkpoint(
    path: str,
    attack: str,
    circuit_fingerprint: str,
    config_key: dict,
) -> Checkpoint:
    """Load-or-create the checkpoint for one (attack, circuit, config).

    An existing file must match the attack name, the circuit
    fingerprint and the determinism-relevant config fields — resuming a
    transcript recorded under different conditions cannot be bit-exact,
    so a mismatch is an error rather than a silent fresh start.
    """
    existing = load_checkpoint(path)
    if existing is None:
        return Checkpoint(
            attack=attack,
            circuit_fingerprint=circuit_fingerprint,
            config_key=config_key,
        )
    mismatches = []
    if existing.attack != attack:
        mismatches.append(f"attack {existing.attack!r} != {attack!r}")
    if existing.circuit_fingerprint != circuit_fingerprint:
        mismatches.append("circuit fingerprint differs")
    if existing.config_key != config_key:
        mismatches.append("config differs")
    if mismatches:
        raise CheckpointError(
            f"checkpoint {path!r} does not match this run "
            f"({'; '.join(mismatches)}); delete it or point --checkpoint "
            "at a fresh path"
        )
    return existing


def _normalize_pattern(
    assignment: Mapping[str, int], names: Sequence[str]
) -> dict[str, int]:
    return {name: int(assignment[name]) for name in names}


class CheckpointOracle:
    """An :class:`IOOracle` facade that records and replays transcripts.

    Implements the full oracle interface (``query``, ``query_batch``,
    ``query_sliced``, names, ``query_count``) so attacks
    cannot tell it from the real thing. ``query_count`` counts replayed
    answers too — the resumed run's ``oracle_queries`` metric therefore
    equals the uninterrupted run's, which is what makes the round trip
    bit-exact; ``live_queries`` tracks what actually reached the inner
    oracle after resume.
    """

    def __init__(self, oracle: IOOracle, checkpoint: Checkpoint, path: str):
        """Recorded queries are flushed at most once per
        :data:`ADAPTIVE_FLUSH_SECONDS`. The engine also flushes when the
        attack returns a TIMEOUT or raises (``KeyboardInterrupt``
        included) and when it finalizes a result, so only a hard crash
        can lose the last interval, and resume re-queries that tail
        live."""
        self._oracle = oracle
        self._checkpoint = checkpoint
        self._path = path
        self._last_flush = time.monotonic()
        self._replay_pos = 0
        # Only the transcript as it stood at resume time is replayable;
        # queries recorded *during* this run are appended behind the
        # boundary and never served back.
        self._replay_limit = len(checkpoint.queries)
        self.query_count = 0
        self.live_queries = 0
        self.replayed_queries = 0

    # -- interface mirror ------------------------------------------------
    @property
    def input_names(self) -> tuple[str, ...]:
        return self._oracle.input_names

    @property
    def output_names(self) -> tuple[str, ...]:
        return self._oracle.output_names

    # -- core ------------------------------------------------------------
    def _replay_one(self, pattern: dict[str, int]) -> dict[str, int] | None:
        """Serve the next recorded answer if it matches ``pattern``."""
        if self._replay_pos >= self._replay_limit:
            return None
        entry = self._checkpoint.queries[self._replay_pos]
        if entry["i"] != pattern:
            raise CheckpointError(
                "checkpoint replay diverged: the resumed attack issued "
                f"query #{self._replay_pos} with a different pattern than "
                "the recorded transcript (circuit, seed, or attack code "
                "changed since the checkpoint was written)"
            )
        self._replay_pos += 1
        self.replayed_queries += 1
        return {name: int(bit) for name, bit in entry["o"].items()}

    def _record(self, pattern: dict[str, int], outputs: dict[str, int]):
        self._checkpoint.queries.append(
            {"i": pattern, "o": {k: int(v) for k, v in outputs.items()}}
        )
        if time.monotonic() - self._last_flush >= ADAPTIVE_FLUSH_SECONDS:
            self.flush()

    def flush(self) -> None:
        save_checkpoint(self._path, self._checkpoint)
        self._last_flush = time.monotonic()

    def finalize(self, result) -> None:
        """Mark the run complete and persist the serialized result."""
        self._checkpoint.completed = True
        self._checkpoint.result = result.to_json_dict()
        self.flush()

    def query(self, assignment: Mapping[str, int]) -> dict[str, int]:
        pattern = _normalize_pattern(assignment, self.input_names)
        self.query_count += 1
        replayed = self._replay_one(pattern)
        if replayed is not None:
            return replayed
        outputs = self._oracle.query(pattern)
        self.live_queries += 1
        self._record(pattern, outputs)
        return dict(outputs)

    def query_batch(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> list[dict[str, int]]:
        patterns = [
            _normalize_pattern(assignment, self.input_names)
            for assignment in assignments
        ]
        self.query_count += len(patterns)
        rows: list[dict[str, int]] = []
        live_from = len(patterns)
        for index, pattern in enumerate(patterns):
            replayed = self._replay_one(pattern)
            if replayed is None:
                live_from = index
                break
            rows.append(replayed)
        remainder = patterns[live_from:]
        if remainder:
            fresh = self._oracle.query_batch(remainder)
            self.live_queries += len(remainder)
            for pattern, outputs in zip(remainder, fresh):
                self._record(pattern, outputs)
                rows.append(dict(outputs))
        return rows

    def query_sliced(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> tuple[int, ...]:
        rows = self.query_batch(assignments)
        words = [0] * len(self.output_names)
        for j, row in enumerate(rows):
            for position, name in enumerate(self.output_names):
                if row[name]:
                    words[position] |= 1 << j
        return tuple(words)
