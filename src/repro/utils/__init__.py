"""Shared utilities: budgets/timers, bit manipulation, deterministic RNG."""

from repro.utils.timer import Budget, Stopwatch
from repro.utils.rng import make_rng

__all__ = [
    "Budget",
    "Stopwatch",
    "make_rng",
]
