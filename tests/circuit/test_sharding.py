"""Tests for the worker pool, the sweep calls and circuit specs.

The pool's guarantees: ``map_in_processes`` preserves item order, runs
inline when there is nothing to parallelize or the caller may not spawn
workers, and survives a killed worker. The sweep calls evaluate on the
cached compiled engine, and specs rebuild circuits exactly.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.circuit import sharding
from repro.circuit.compiled import compile_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.sharding import (
    parse_jobs,
    resolve_jobs,
    sweep_node_values,
    sweep_outputs,
    sweep_popcounts,
    sweep_truth_table,
)
from repro.circuit.simulate import simulate_interpreted
from repro.circuit.spec import (
    circuit_fingerprint,
    circuit_from_spec,
    circuit_spec,
)
from repro.errors import CircuitError
from repro.utils.rng import make_rng


@pytest.fixture
def fresh_pool():
    """Isolate pool state: start without a pool, tear it down after."""
    sharding.shutdown_pool()
    yield
    sharding.shutdown_pool()


class TestJobsParsing:
    def test_auto_and_empty_mean_auto(self):
        assert parse_jobs(None) is None
        assert parse_jobs("auto") is None
        assert parse_jobs("  AUTO ") is None
        assert parse_jobs("") is None

    def test_integers_parse(self):
        assert parse_jobs(3) == 3
        assert parse_jobs("4") == 4
        assert parse_jobs(" 2 ") == 2

    @pytest.mark.parametrize("bad", ["zero", "1.5", "-", "2x"])
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(CircuitError, match="invalid jobs value"):
            parse_jobs(bad)

    @pytest.mark.parametrize("bad", [0, -1, "0", "-7"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(CircuitError, match="jobs must be >= 1"):
            parse_jobs(bad)

    def test_resolution_reads_only_the_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", "5")
        assert resolve_jobs(2) == 2
        assert resolve_jobs() == sharding.cpu_jobs()
        assert resolve_jobs("auto") == sharding.cpu_jobs()


class TestCircuitSpecRoundTrip:
    def test_spec_rebuilds_identical_circuit(self):
        circuit = generate_random_circuit("spec", 8, 3, 60, seed=9)
        circuit.add_input("k0", key=True)
        rebuilt = circuit_from_spec(circuit_spec(circuit))
        assert rebuilt.nodes == circuit.nodes
        assert rebuilt.outputs == circuit.outputs
        assert rebuilt.key_inputs == circuit.key_inputs
        for node in circuit.nodes:
            assert rebuilt.gate_type(node) == circuit.gate_type(node)
            assert rebuilt.fanins(node) == circuit.fanins(node)

    def test_rebuilt_circuit_simulates_identically(self):
        circuit = generate_random_circuit("specsim", 7, 2, 50, seed=4)
        rebuilt = circuit_from_spec(circuit_spec(circuit))
        rng = make_rng(1)
        values = {name: rng.getrandbits(128) for name in circuit.inputs}
        assert compile_circuit(rebuilt).eval_outputs_sliced(
            values, width=128
        ) == compile_circuit(circuit).eval_outputs_sliced(values, width=128)

    def test_fingerprint_tracks_name_and_structure(self):
        circuit = generate_random_circuit("fp", 6, 2, 40, seed=5)
        original = circuit_fingerprint(circuit)
        rebuilt = circuit_from_spec(circuit_spec(circuit))
        assert circuit_fingerprint(rebuilt) == original
        circuit.name = "renamed"
        renamed = circuit_fingerprint(circuit)
        assert renamed != original
        circuit.add_input("k0", key=True)
        assert circuit_fingerprint(circuit) not in (original, renamed)


class TestSweeps:
    def test_sweeps_match_the_interpreter(self):
        rng = make_rng(17)
        width = 260
        for seed in range(12):
            circuit = generate_random_circuit(
                f"sw{seed}", 6, 3, 50, seed=4000 + seed
            )
            values = {
                name: rng.getrandbits(width) for name in circuit.inputs
            }
            reference = simulate_interpreted(circuit, values, width=width)
            assert sweep_outputs(circuit, values, width) == tuple(
                reference[name] for name in circuit.outputs
            )
            nodes = tuple(circuit.gates[:6])
            assert sweep_node_values(circuit, nodes, values, width) == tuple(
                reference[name] for name in nodes
            )
            assert sweep_popcounts(circuit, values, width) == {
                node: word.bit_count() for node, word in reference.items()
            }

    def test_row_patterns_and_truth_table(self):
        circuit = generate_random_circuit("swrows", 10, 2, 90, seed=81)
        rng = make_rng(9)
        rows = [
            {name: rng.getrandbits(1) for name in circuit.inputs}
            for _ in range(150)
        ]
        engine = compile_circuit(circuit)
        assert sweep_outputs(circuit, rows) == engine.eval_outputs_sliced(rows)
        node = circuit.outputs[0]
        assert sweep_truth_table(circuit, node) == engine.truth_table(node)


class TestPoolLifecycle:
    def test_sweeps_never_spin_up_the_pool(self, fresh_pool):
        circuit = generate_random_circuit("nopool", 8, 3, 60, seed=33)
        rng = make_rng(11)
        width = 1 << 16
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        sweep_outputs(circuit, values, width)
        sweep_popcounts(circuit, values, width)
        assert not sharding.pool_is_running()

    def test_pool_persists_across_sweeps(self, fresh_pool):
        assert sharding.map_in_processes(_square, [1, 2], jobs=2) == [1, 4]
        first = sharding._POOL
        assert first is not None
        assert sharding.map_in_processes(_square, [3, 4], jobs=2) == [9, 16]
        assert sharding._POOL is first  # reused, not respawned

    def test_shutdown_is_idempotent(self, fresh_pool):
        sharding.shutdown_pool()
        sharding.shutdown_pool()
        assert not sharding.pool_is_running()


class TestMapInProcesses:
    def test_preserves_order(self, fresh_pool):
        items = list(range(20))
        assert sharding.map_in_processes(_square, items, jobs=3) == [
            n * n for n in items
        ]

    def test_single_job_runs_inline(self, fresh_pool):
        assert sharding.map_in_processes(_square, [3, 4], jobs=1) == [9, 16]
        assert not sharding.pool_is_running()

    def test_single_item_runs_inline(self, fresh_pool):
        assert sharding.map_in_processes(_square, [5], jobs=4) == [25]
        assert not sharding.pool_is_running()


class TestBrokenPoolRecovery:
    """One killed worker must never poison later pooled calls."""

    def test_map_falls_back_inline_when_workers_die(self, fresh_pool):
        result = sharding.map_in_processes(_square_or_die, [1, 2, 3], jobs=2)
        assert result == [1, 4, 9]
        assert not sharding.pool_is_running()  # dead executor was dropped

    def test_next_sweep_after_breakage_gets_a_fresh_pool(self, fresh_pool):
        sharding.map_in_processes(_square_or_die, [1, 2], jobs=2)
        assert sharding.map_in_processes(_square, [1, 2, 3], jobs=2) == [
            1, 4, 9
        ]
        assert sharding.pool_is_running()

    def test_sweep_falls_back_inline_on_broken_pool(
        self, fresh_pool, monkeypatch
    ):
        def broken(workers):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(sharding, "_get_pool", broken)
        assert sharding._run_sharded(_square, [1, 2], 2) is None
        assert sharding.map_in_processes(_square, [1, 2, 3], jobs=2) == [
            1, 4, 9
        ]


class TestDaemonicCallerGuard:
    def test_daemonic_process_never_spawns_a_pool(
        self, fresh_pool, monkeypatch
    ):
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert not sharding.pool_allowed()
        assert sharding.map_in_processes(_square, [1, 2, 3], jobs=4) == [
            1, 4, 9
        ]
        assert not sharding.pool_is_running()


def _square(n: int) -> int:
    return n * n


def _square_or_die(n: int) -> int:
    """Kill the hosting pool worker; compute normally when inline."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return n * n
