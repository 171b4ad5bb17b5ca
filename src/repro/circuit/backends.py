"""The evaluation backend of the compiled simulation engine.

:mod:`repro.circuit.compiled` evaluates on packed Python ints: pattern
``j`` lives in bit ``j`` of one int per signal, and CPython's bignum
kernel performs 64 patterns per machine-word op at any width. That is
the only backend; :func:`resolve_backend` names it for reports.
"""

from __future__ import annotations


def resolve_backend(name: None = None) -> str:
    """The name of the evaluation backend: always ``"python"``."""
    return "python"
