"""Determinism tests for the process-parallel suite runner.

The contract: every grid cell is rebuilt from its own deterministic
seeds inside whichever process runs it, and records merge in grid
order, so the summary statistics are identical for every worker count
(wall-clock timings are the only fields allowed to differ).
"""

from __future__ import annotations

import pytest

from repro.circuit import sharding
from repro.experiments.profiles import Scale
from repro.experiments.runner import SuiteTask, run_suite, run_suite_task
from repro.experiments.summary import run_summary


# A grid small enough that the sweep runs in seconds.
SMALL_GRID = Scale(circuits=1, max_keys=8, max_gates=80, time_limit=15.0)


@pytest.fixture
def fresh_pool():
    """Run each test against a freshly started worker pool."""
    sharding.shutdown_pool()
    yield
    sharding.shutdown_pool()


def _stable_view(record):
    """Everything deterministic about a record (timings excluded)."""
    return (
        record.benchmark,
        record.attack,
        record.status,
        record.solved,
        record.correct_key,
        record.oracle_queries,
        record.shortlist_size,
        sorted(record.details.items()),
    )


class TestSummaryDeterminism:
    def test_env_jobs_1_vs_4_identical_summaries(self, fresh_pool):
        sequential = run_summary(SMALL_GRID, jobs=1)
        parallel = run_summary(SMALL_GRID, jobs=4)
        assert [_stable_view(r) for r in sequential.records] == [
            _stable_view(r) for r in parallel.records
        ]
        assert (
            sequential.total,
            sequential.defeated,
            sequential.unique_key,
            sequential.complement_pairs,
            sequential.multi_key,
            sequential.timeouts,
        ) == (
            parallel.total,
            parallel.defeated,
            parallel.unique_key,
            parallel.complement_pairs,
            parallel.multi_key,
            parallel.timeouts,
        )

    def test_summary_covers_the_whole_grid(self, fresh_pool):
        stats = run_summary(SMALL_GRID, jobs=1)
        assert stats.total == len(SMALL_GRID.profiles()) * 4
        assert len(stats.records) == stats.total


class TestRunSuite:
    def test_parallel_records_keep_task_order(self, fresh_pool):
        profile = SMALL_GRID.profiles()[0]
        tasks = [
            SuiteTask(profile=profile, h_label=label, time_limit=15.0)
            for label in ("hd0", "m/8", "m/4", "m/3")
        ]
        records = run_suite(tasks, jobs=2)
        assert [r.benchmark for r in records] == [
            f"{profile.name}[{label}]"
            for label in ("hd0", "m/8", "m/4", "m/3")
        ]

    def test_worker_entry_matches_inline_run(self, fresh_pool):
        profile = SMALL_GRID.profiles()[0]
        task = SuiteTask(profile=profile, h_label="hd0", time_limit=15.0)
        inline = run_suite_task(task)
        (pooled,) = run_suite([task], jobs=1)
        assert _stable_view(inline) == _stable_view(pooled)
