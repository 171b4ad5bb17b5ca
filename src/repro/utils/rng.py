"""Deterministic random number generation.

Every randomized component (benchmark generation, locking cube selection,
random simulation) accepts either a seed or an existing ``random.Random``;
``make_rng`` normalizes both into a ``random.Random`` instance so results
are reproducible end to end.
"""

from __future__ import annotations

import random

RngLike = random.Random | int | None


def make_rng(seed_or_rng: RngLike = None) -> random.Random:
    """Return a ``random.Random``; ints seed a fresh generator.

    ``None`` also produces a *seeded* generator (seed 0) — this library
    prefers reproducibility over entropy, since experiment tables must be
    regenerable.
    """
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    if seed_or_rng is None:
        return random.Random(0)
    return random.Random(seed_or_rng)
