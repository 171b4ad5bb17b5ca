"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the repro package."""


class CircuitError(ReproError):
    """Structural problem with a circuit (bad fanin, cycle, unknown node)."""


class ParseError(ReproError):
    """Malformed .bench netlist file."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EncodingError(ReproError):
    """A CNF encoding was asked for something unrepresentable."""


class LockingError(ReproError):
    """Invalid locking request (key too long, bad target output, ...)."""


class AttackError(ReproError):
    """An attack was invoked on an input it cannot handle."""


class SolverError(ReproError):
    """Internal SAT-solver misuse (bad literal, model queried before SAT)."""
