"""Attack outcome records.

Every attack returns an :class:`AttackResult` so the experiment harness
can tabulate success/failure, recovered keys, timings and query counts
uniformly across attack families.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

#: Version tag embedded in serialized results so future schema changes
#: can be detected instead of silently misparsed.
RESULT_SCHEMA = 1


class AttackStatus(enum.Enum):
    """How an attack run ended."""

    SUCCESS = "success"          # a key was recovered (and verified if possible)
    MULTIPLE_CANDIDATES = "multiple_candidates"  # shortlist > 1, no oracle
    FAILED = "failed"            # analysis found nothing / refuted the guess
    TIMEOUT = "timeout"          # budget exhausted
    NOT_APPLICABLE = "not_applicable"  # preconditions unmet (e.g. 4h > m)


@dataclass
class AttackResult:
    """Uniform record of one attack execution."""

    attack: str
    status: AttackStatus
    key: tuple[int, ...] | None = None
    key_names: tuple[str, ...] = ()
    candidates: tuple[tuple[int, ...], ...] = ()
    elapsed_seconds: float = 0.0
    oracle_queries: int = 0
    iterations: int = 0
    details: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.status is AttackStatus.SUCCESS

    @property
    def approximate(self) -> bool:
        """Whether this is a SUCCESS the attack could not check.

        AppSAT's early exit, Double DIP, SPS and a key-confirmation (or
        ``guess``) key checked only against its shortlist mark such
        results with ``details['approximate']``: the answer may be wrong
        on some inputs.
        """
        return self.succeeded and bool(self.details.get("approximate"))

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.attack}: {self.status.value}"]
        if self.approximate:
            parts.append("(approximate)")
        if self.key is not None:
            parts.append(f"key={''.join(map(str, self.key))}")
        if len(self.candidates) > 1:
            parts.append(f"candidates={len(self.candidates)}")
        parts.append(f"t={self.elapsed_seconds:.3f}s")
        if self.oracle_queries:
            parts.append(f"queries={self.oracle_queries}")
        if self.iterations:
            parts.append(f"iters={self.iterations}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # JSON serialization (round-trip guaranteed)
    # ------------------------------------------------------------------
    def sanitized(self) -> "AttackResult":
        """A copy whose ``details`` dict is canonically JSON-safe.

        Families put rich objects into ``details`` (``FallReport``
        dataclasses, reconstructed :class:`~repro.circuit.circuit.Circuit`
        netlists, tuples); this maps each onto plain JSON types — dicts,
        lists, strings, numbers, booleans, ``None`` — so serialized and
        in-process results carry the same shapes. The engine layer
        sanitizes every result it returns.
        """
        return dataclasses.replace(self, details=jsonify_details(self.details))

    def to_json_dict(self) -> dict:
        """The canonical JSON-safe dict form of this result.

        Round-trip guarantee: ``AttackResult.from_json_dict(json.loads(
        json.dumps(r.to_json_dict()))) == r.sanitized()`` for every
        result, and ``== r`` whenever ``r`` came out of the engine layer
        (which sanitizes details).
        """
        return {
            "schema": RESULT_SCHEMA,
            "attack": self.attack,
            "status": self.status.value,
            "key": list(self.key) if self.key is not None else None,
            "key_names": list(self.key_names),
            "candidates": [list(c) for c in self.candidates],
            "elapsed_seconds": self.elapsed_seconds,
            "oracle_queries": self.oracle_queries,
            "iterations": self.iterations,
            "details": jsonify_details(self.details),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AttackResult":
        schema = data.get("schema", RESULT_SCHEMA)
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported AttackResult schema {schema!r} "
                f"(this build reads schema {RESULT_SCHEMA})"
            )
        key = data.get("key")
        return cls(
            attack=data["attack"],
            status=AttackStatus(data["status"]),
            key=tuple(int(b) for b in key) if key is not None else None,
            key_names=tuple(data.get("key_names", ())),
            candidates=tuple(
                tuple(int(b) for b in candidate)
                for candidate in data.get("candidates", ())
            ),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            oracle_queries=int(data.get("oracle_queries", 0)),
            iterations=int(data.get("iterations", 0)),
            details=data.get("details", {}),
        )


# ----------------------------------------------------------------------
# Canonical JSON conversion for details payloads
# ----------------------------------------------------------------------
def jsonify_details(value):
    """Map an arbitrary details payload onto plain JSON types.

    Conversion rules (applied recursively):

    - mappings -> dicts with string keys;
    - tuples / lists -> lists; sets -> sorted lists;
    - enums -> their ``value``;
    - :class:`~repro.circuit.circuit.Circuit` -> a ``{"__circuit__":
      {...}}`` marker holding the full picklable spec (rebuild with
      :func:`circuit_from_details`);
    - dataclasses (``FallReport``, ``SkewEstimate``, ...) -> field
      dicts tagged with ``"__type__"``;
    - anything else JSON cannot express -> ``repr`` text.

    The output is a fixed point: jsonifying it again returns an equal
    structure, which is what makes the ``to_json_dict`` /
    ``from_json_dict`` round trip a guarantee rather than a convention.
    """
    from repro.circuit.circuit import Circuit

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf are not JSON; stringify them so dumps never fails.
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if isinstance(value, enum.Enum):
        return jsonify_details(value.value)
    if isinstance(value, dict):
        return {str(k): jsonify_details(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_details(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify_details(item) for item in value)
    if isinstance(value, Circuit):
        return {"__circuit__": _circuit_payload(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {"__type__": type(value).__name__}
        for field_info in dataclasses.fields(value):
            payload[field_info.name] = jsonify_details(
                getattr(value, field_info.name)
            )
        return payload
    return repr(value)


def _circuit_payload(circuit) -> dict:
    from repro.circuit.spec import circuit_spec

    name, nodes, outputs, key_inputs = circuit_spec(circuit)
    return {
        "name": name,
        "nodes": [[node, type_value, list(fanins)]
                  for node, type_value, fanins in nodes],
        "outputs": list(outputs),
        "key_inputs": list(key_inputs),
    }


def circuit_from_details(payload: dict):
    """Rebuild a :class:`Circuit` from a jsonified ``__circuit__`` marker.

    Accepts either the marker dict itself or its inner payload, so both
    ``circuit_from_details(details["reconstructed"])`` forms work.
    """
    from repro.circuit.spec import circuit_from_spec

    inner = payload.get("__circuit__", payload)
    spec = (
        inner["name"],
        tuple(
            (node, type_value, tuple(fanins))
            for node, type_value, fanins in inner["nodes"]
        ),
        tuple(inner["outputs"]),
        tuple(inner["key_inputs"]),
    )
    return circuit_from_spec(spec)
