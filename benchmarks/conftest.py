"""Shared configuration for the pytest-benchmark harness.

Every benchmark regenerates one paper artifact (table/figure) at the
``scale`` fixture below: a small default that the ``REPRO_*`` variables
override (set ``REPRO_FULL=1`` for paper-scale runs). Benchmarks print
the regenerated artifact so ``pytest benchmarks/ --benchmark-only -s``
doubles as the reproduction report generator.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.profiles import Scale, scale_from_env

# Smaller than the library's default scale, so the harness runs in minutes.
_BENCH_DEFAULTS = {
    "REPRO_MAX_KEYS": "12",
    "REPRO_MAX_GATES": "250",
    "REPRO_CIRCUITS": "4",
    "REPRO_TIME_LIMIT": "20",
}


@pytest.fixture(scope="session")
def scale() -> Scale:
    """The benchmark scale: the caller's ``REPRO_*`` variables, else ours."""
    return scale_from_env({**_BENCH_DEFAULTS, **os.environ})
