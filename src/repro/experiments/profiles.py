"""Benchmark circuit profiles (paper Table I) and the experiment scale.

The paper evaluates on 20 ISCAS'85 + MCNC circuits. Each profile below
records the published interface and size: inputs, outputs, key width and
original gate count. The netlists themselves are substituted by seeded
synthetic circuits with the same profile
(:mod:`repro.circuit.random_circuits`).

Scaling: the paper ran 64-bit keys on a 28-core Xeon with a 1000 s
limit. :data:`DEFAULT_SCALE` shrinks key widths, gate counts and the
circuit count so the whole evaluation runs on a laptop in minutes;
:data:`PAPER_SCALE` keeps the published profiles and limit. Every
artifact module takes a :class:`Scale` argument. Only the
``fall-experiments`` command reads the ``REPRO_*`` environment
variables, through :func:`scale_from_env`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CircuitProfile:
    """Published interface of one Table I benchmark circuit."""

    name: str
    num_inputs: int
    num_outputs: int
    key_width: int
    num_gates: int

    def seed(self) -> int:
        """Deterministic per-circuit generation seed."""
        return sum(ord(ch) * (index + 1) for index, ch in enumerate(self.name))


# Table I of the paper: ckt, #in, #out, #keys, #gates (original).
TABLE1_PROFILES: tuple[CircuitProfile, ...] = (
    CircuitProfile("ex1010", 10, 10, 10, 2754),
    CircuitProfile("apex4", 10, 19, 10, 2886),
    CircuitProfile("c1908", 33, 25, 33, 414),
    CircuitProfile("c432", 36, 7, 36, 209),
    CircuitProfile("apex2", 39, 3, 39, 345),
    CircuitProfile("c1355", 41, 32, 41, 504),
    CircuitProfile("seq", 41, 35, 41, 1964),
    CircuitProfile("c499", 41, 32, 41, 400),
    CircuitProfile("k2", 46, 45, 46, 1474),
    CircuitProfile("c3540", 50, 22, 50, 1038),
    CircuitProfile("c880", 60, 26, 60, 327),
    CircuitProfile("dalu", 75, 16, 64, 1202),
    CircuitProfile("i9", 88, 63, 64, 591),
    CircuitProfile("i8", 133, 81, 64, 1725),
    CircuitProfile("c5315", 178, 123, 64, 1773),
    CircuitProfile("i4", 192, 6, 64, 246),
    CircuitProfile("i7", 199, 67, 64, 663),
    CircuitProfile("c7552", 207, 108, 64, 2074),
    CircuitProfile("c2670", 233, 140, 64, 717),
    CircuitProfile("des", 256, 245, 64, 3839),
)

# The Hamming-distance settings of Figure 5, one locked variant each.
H_LABELS: tuple[str, ...] = ("hd0", "m/8", "m/4", "m/3")


def h_for(label: str, key_width: int) -> int:
    """The h value for a Figure 5 panel label and key width."""
    if label == "hd0":
        return 0
    divisor = int(label.split("/")[1])
    return key_width // divisor


@dataclass(frozen=True)
class Scale:
    """How much of the paper's evaluation an artifact runs.

    ``circuits`` takes the first rows of Table I. ``max_keys`` and
    ``max_gates`` cap each profile's key width and gate count, and a
    capped profile's interface is clipped to 64 inputs and 16 outputs;
    ``None`` for both keeps the published profiles. ``time_limit`` is
    the per-attack limit in seconds.
    """

    circuits: int
    max_keys: int | None
    max_gates: int | None
    time_limit: float

    def __post_init__(self) -> None:
        if not 1 <= self.circuits <= len(TABLE1_PROFILES):
            raise ValueError(
                f"circuits must be 1..{len(TABLE1_PROFILES)}, got {self.circuits}"
            )
        if (self.max_keys is None) != (self.max_gates is None):
            raise ValueError("max_keys and max_gates must both be set or both None")
        for name in ("max_keys", "max_gates"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be > 0, got {self.time_limit}")

    def profiles(self) -> list[CircuitProfile]:
        """The Table I profiles this scale runs, in table order."""
        selected = TABLE1_PROFILES[: self.circuits]
        if self.max_keys is None:
            return list(selected)
        return [
            replace(
                profile,
                key_width=min(profile.key_width, self.max_keys),
                num_gates=min(profile.num_gates, self.max_gates),
                num_inputs=min(profile.num_inputs, 64),
                num_outputs=min(profile.num_outputs, 16),
            )
            for profile in selected
        ]


DEFAULT_SCALE = Scale(circuits=8, max_keys=16, max_gates=400, time_limit=30.0)
PAPER_SCALE = Scale(
    circuits=len(TABLE1_PROFILES), max_keys=None, max_gates=None, time_limit=1000.0
)

# Environment variable -> (Scale field, parser), applied in this order.
_ENV_FIELDS: dict[str, tuple[str, type]] = {
    "REPRO_CIRCUITS": ("circuits", int),
    "REPRO_MAX_KEYS": ("max_keys", int),
    "REPRO_MAX_GATES": ("max_gates", int),
    "REPRO_TIME_LIMIT": ("time_limit", float),
}


def scale_from_env(environ: Mapping[str, str]) -> Scale:
    """The scale the ``REPRO_*`` variables in ``environ`` select.

    ``REPRO_FULL=1`` starts from :data:`PAPER_SCALE` and ignores the
    three reduction variables; otherwise each set variable overrides
    one field of :data:`DEFAULT_SCALE`. ``REPRO_TIME_LIMIT`` applies
    at either scale. Raises ``ValueError`` naming the variable when a
    value is malformed or out of range.
    """
    full = environ.get("REPRO_FULL", "0")
    if full not in ("0", "1"):
        raise ValueError(f"REPRO_FULL must be unset, 0 or 1, got {full!r}")
    paper = full == "1"
    scale = PAPER_SCALE if paper else DEFAULT_SCALE
    for variable, (field, parse) in _ENV_FIELDS.items():
        if variable not in environ or (paper and field != "time_limit"):
            continue
        text = environ[variable]
        try:
            scale = replace(scale, **{field: parse(text)})
        except ValueError as error:
            raise ValueError(f"{variable}={text!r}: {error}") from None
    return scale
