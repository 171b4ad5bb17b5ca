"""Engine lifecycle tests: checkpoint/resume and portfolio racing.

The acceptance contract for checkpoints is *bit-exactness*: a run
interrupted at iteration k and resumed must recover the identical key
after the identical total iteration count as an uninterrupted run,
with only the remaining queries hitting the live oracle. The attacks
are deterministic functions of (config, oracle answers), so replaying
the persisted I/O transcript reconstructs the interrupted solver state
exactly.
"""

from __future__ import annotations

import json
import os
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache

import pytest

from repro.attacks.base import AttackConfig
from repro.attacks.checkpoint import CheckpointError, load_checkpoint
from repro.attacks.engine import run_attack, run_portfolio
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit import sharding
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import (
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)

_TIME_LIMIT = 60.0


@lru_cache(maxsize=None)
def _benchmark(name):
    if name == "ttlock":
        original = generate_random_circuit("eng14", 14, 4, 110, seed=21)
        return original, lock_ttlock(original, key_width=10, seed=5)
    if name == "sfll1":
        original = generate_random_circuit("eng12", 12, 4, 100, seed=22)
        return original, lock_sfll_hd(original, h=1, key_width=10, seed=6)
    if name == "sarlock":
        original = generate_random_circuit("eng10", 10, 3, 70, seed=31)
        return original, lock_sarlock(original, key_width=8, seed=9)
    if name == "rll":
        original = generate_random_circuit("eng10b", 10, 3, 70, seed=33)
        return original, lock_random_xor(original, key_width=6, seed=8)
    raise AssertionError(name)


class TestCheckpointResume:
    # Double DIP sees no 2-DIPs on TTLock (every wrong key is a single
    # point error), so it checkpoints against the SFLL-HD1 cell where
    # its CEGIS loop actually iterates. Its later iterations get slow,
    # so that cell caps both runs at 10 iterations; the resumed run must
    # stop at the same point with the same solver work.
    @pytest.mark.parametrize(
        "attack,cell,cap",
        [
            pytest.param("sat", "ttlock", None, id="sat-ttlock"),
            pytest.param("appsat", "ttlock", None, id="appsat-ttlock"),
            pytest.param("double-dip", "sfll1", 10, id="double-dip-sfll1"),
        ],
    )
    def test_round_trip_is_bit_exact(self, attack, cell, cap, tmp_path):
        """Interrupt at iteration 3, resume, compare to uninterrupted."""
        original, locked = _benchmark(cell)
        path = str(tmp_path / f"{attack}.ckpt.json")

        reference = run_attack(
            attack, locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, max_iterations=cap),
        )
        expected = AttackStatus.SUCCESS if cap is None else AttackStatus.TIMEOUT
        assert reference.status is expected
        assert reference.iterations > 3, "corpus cell too easy to interrupt"

        partial = run_attack(
            attack, locked.circuit, IOOracle(original),
            AttackConfig(
                time_limit=_TIME_LIMIT, max_iterations=3, checkpoint_path=path
            ),
        )
        assert partial.status is AttackStatus.TIMEOUT
        checkpoint = load_checkpoint(path)
        assert not checkpoint.completed
        assert len(checkpoint.queries) == partial.oracle_queries

        live = IOOracle(original)
        resumed = run_attack(
            attack, locked.circuit, live,
            AttackConfig(
                time_limit=_TIME_LIMIT, max_iterations=cap,
                checkpoint_path=path,
            ),
        )
        # Identical outcome, iteration count, query metric and solver
        # work — and only the remainder hit the live oracle.
        assert resumed.status is reference.status
        assert resumed.key == reference.key
        assert resumed.iterations == reference.iterations
        assert resumed.oracle_queries == reference.oracle_queries
        assert resumed.details["solver"] == reference.details["solver"]
        assert (
            resumed.details["checkpoint"]["replayed_queries"]
            == partial.oracle_queries
        )
        assert live.query_count == (
            reference.oracle_queries - partial.oracle_queries
        )

    def test_completed_checkpoint_answers_without_the_oracle(self, tmp_path):
        original, locked = _benchmark("ttlock")
        path = str(tmp_path / "sat.done.json")
        first = run_attack(
            "sat", locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, checkpoint_path=path),
        )
        assert load_checkpoint(path).completed
        untouched = IOOracle(original)
        again = run_attack(
            "sat", locked.circuit, untouched,
            AttackConfig(time_limit=_TIME_LIMIT, checkpoint_path=path),
        )
        assert untouched.query_count == 0
        assert again.key == first.key
        assert again.details["checkpoint"]["already_completed"]

    def test_mismatched_checkpoint_is_rejected(self, tmp_path):
        original, locked = _benchmark("ttlock")
        other_original, other_locked = _benchmark("sfll1")
        path = str(tmp_path / "sat.ckpt.json")
        run_attack(
            "sat", locked.circuit, IOOracle(original),
            AttackConfig(
                time_limit=_TIME_LIMIT, max_iterations=2, checkpoint_path=path
            ),
        )
        # Different circuit -> fingerprint mismatch.
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_attack(
                "sat", other_locked.circuit, IOOracle(other_original),
                AttackConfig(time_limit=_TIME_LIMIT, checkpoint_path=path),
            )
        # Different attack under the same path -> name mismatch.
        with pytest.raises(CheckpointError, match="attack"):
            run_attack(
                "double-dip", locked.circuit, IOOracle(original),
                AttackConfig(time_limit=_TIME_LIMIT, checkpoint_path=path),
            )

    def test_unsupported_family_ignores_checkpoint_cleanly(self, tmp_path):
        """fall's query prefix is wall-clock-dependent, so the engine
        must decline to checkpoint it (and say so) rather than fail a
        later resume with a misleading divergence error."""
        original, locked = _benchmark("ttlock")
        path = tmp_path / "fall.ckpt.json"
        result = run_attack(
            "fall", locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, checkpoint_path=str(path)),
        )
        assert result.status is AttackStatus.SUCCESS
        assert result.details["checkpoint"] == {"unsupported": True}
        assert not path.exists()

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        original, locked = _benchmark("ttlock")
        path = tmp_path / "sat.ckpt.json"
        run_attack(
            "sat", locked.circuit, IOOracle(original),
            AttackConfig(
                time_limit=_TIME_LIMIT, max_iterations=2,
                checkpoint_path=str(path),
            ),
        )
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert data["attack"] == "sat"
        for entry in data["queries"]:
            assert set(entry) == {"i", "o"}


class TestPortfolio:
    def test_sequential_race_stops_at_first_conclusive(self):
        original, locked = _benchmark("ttlock")
        result = run_portfolio(
            ["fall", "sat", "appsat"], locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, jobs=1),
        )
        assert result.status is AttackStatus.SUCCESS
        portfolio = result.details["portfolio"]
        assert portfolio["winner"] == "fall"
        # fall concluded first in order, so the rest never started.
        assert portfolio["attacks"]["sat"]["status"] == "skipped"
        assert portfolio["attacks"]["appsat"]["status"] == "skipped"

    def test_parallel_race_with_two_workers(self):
        """SARLock: fall fails, appsat escapes early — appsat must win
        and the portfolio must remain deterministic given seeds."""
        original, locked = _benchmark("sarlock")
        results = [
            run_portfolio(
                ["fall", "appsat"], locked.circuit, IOOracle(original),
                AttackConfig(time_limit=_TIME_LIMIT, jobs=2),
            )
            for _ in range(2)
        ]
        for result in results:
            assert result.status is AttackStatus.SUCCESS
            assert result.details["portfolio"]["winner"] == "appsat"
            assert result.details["portfolio"]["attacks"]["fall"]["status"] \
                == "failed"
        assert results[0].key == results[1].key

    def test_parallel_race_cancels_the_slow_racer(self):
        """The ~2^k-query SAT attack on SARLock must be cancelled once
        AppSAT concludes (cooperative cancellation through the budget)."""
        original, locked = _benchmark("sarlock")
        result = run_portfolio(
            ["sat", "appsat"], locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, jobs=2),
        )
        assert result.details["portfolio"]["winner"] == "appsat"
        sat_entry = result.details["portfolio"]["attacks"]["sat"]
        # Either the cancel landed mid-CEGIS (the expected path) or SAT
        # finished its 2^k grind first; both end the race conclusively,
        # but it must never run to its own time limit.
        assert sat_entry["status"] in ("timeout", "success")
        if sat_entry["status"] == "timeout":
            assert sat_entry["cancelled"]

    def test_broken_pool_falls_back_to_a_sequential_race(self):
        """A pool that lost a worker must not fail this race or later
        ones: the dead executor is dropped and the race finishes."""
        original, locked = _benchmark("sarlock")

        def race(jobs):
            return run_portfolio(
                ["fall", "appsat"], locked.circuit, IOOracle(original),
                AttackConfig(time_limit=_TIME_LIMIT, jobs=jobs),
            )

        expected = race(1)
        sharding.shutdown_pool()
        try:
            killed = sharding.pool_executor(2).submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                killed.result()
            for _ in range(2):
                result = race(2)
                assert result.details["portfolio"]["winner"] == (
                    expected.details["portfolio"]["winner"]
                )
                assert result.key == expected.key
        finally:
            sharding.shutdown_pool()

    def test_unknown_and_duplicate_names_rejected_up_front(self):
        original, locked = _benchmark("ttlock")
        with pytest.raises(AttackError, match="unknown attack"):
            run_portfolio(["fall", "nope"], locked.circuit)
        with pytest.raises(AttackError, match="twice"):
            run_portfolio(["fall", "fall"], locked.circuit)

    def test_no_conclusive_result_returns_best_status(self):
        original, locked = _benchmark("rll")
        # fall and sps both fail against random XOR locking; the
        # portfolio should return a FAILED result rather than raising.
        result = run_portfolio(
            ["fall", "sps"], locked.circuit, IOOracle(original),
            AttackConfig(time_limit=_TIME_LIMIT, jobs=1),
        )
        assert result.status is AttackStatus.FAILED
        assert result.details["portfolio"]["conclusive"] is False

    def test_portfolio_with_checkpoint_is_rejected(self):
        original, locked = _benchmark("ttlock")
        with pytest.raises(AttackError, match="portfolio"):
            run_portfolio(
                ["fall", "sat"], locked.circuit, IOOracle(original),
                AttackConfig(checkpoint_path="x.json"),
            )
