"""Cooperative time budgets and stopwatches.

The paper runs every attack with a 1000-second wall-clock limit. We mirror
that with a :class:`Budget` object threaded through the SAT solver and the
attack loops. Code checks ``budget.expired`` at convenient points (e.g.
every few hundred solver conflicts) and aborts cooperatively.
"""

from __future__ import annotations

import time


class Stopwatch:
    """Measures elapsed wall-clock time.

    >>> sw = Stopwatch()
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self):
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start


class Budget:
    """A wall-clock budget that can be shared across nested computations.

    ``Budget(None)`` never expires; ``Budget(seconds)`` expires ``seconds``
    after construction. Sub-budgets can be derived with :meth:`sub` so an
    attack stage never outlives its parent attack.
    """

    def __init__(self, seconds: float | None = None):
        if seconds is not None and seconds < 0:
            raise ValueError(f"budget must be non-negative, got {seconds}")
        self.seconds = seconds
        self._stopwatch = Stopwatch()

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(None)

    @property
    def elapsed(self) -> float:
        return self._stopwatch.elapsed

    @property
    def remaining(self) -> float:
        """Seconds left; ``float('inf')`` for an unlimited budget."""
        if self.seconds is None:
            return float("inf")
        return max(0.0, self.seconds - self.elapsed)

    @property
    def expired(self) -> bool:
        return self.remaining <= 0.0

    def sub(self, seconds: float | None = None) -> "Budget":
        """A child budget capped by both ``seconds`` and this budget."""
        if seconds is None:
            cap = self.remaining
        else:
            cap = min(seconds, self.remaining)
        if cap == float("inf"):
            return Budget(None)
        return Budget(cap)

    def __repr__(self) -> str:
        if self.seconds is None:
            return "Budget(unlimited)"
        return f"Budget({self.seconds:.3f}s, remaining={self.remaining:.3f}s)"
