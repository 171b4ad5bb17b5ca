"""Tests for bit-parallel simulation and truth tables."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import (
    exhaustive_input_values,
    simulate,
    simulate_pattern,
    truth_table,
)
from repro.errors import CircuitError
from tests.circuits import c17


def majority_or_d(a: int, b: int, c: int, d: int) -> int:
    return ((a & b) | (b & c) | (c & a) | d) & 1


class TestSimulatePattern:
    def test_paper_example_all_patterns(self):
        circuit = paper_example_circuit()
        for pattern in range(16):
            a, b, c, d = ((pattern >> i) & 1 for i in range(4))
            values = simulate_pattern(circuit, {"a": a, "b": b, "c": c, "d": d})
            assert values["y"] == majority_or_d(a, b, c, d), (a, b, c, d)

    def test_non_binary_value_rejected(self):
        circuit = paper_example_circuit()
        with pytest.raises(CircuitError):
            simulate_pattern(circuit, {"a": 2, "b": 0, "c": 0, "d": 0})

    def test_missing_input_rejected(self):
        circuit = paper_example_circuit()
        with pytest.raises(CircuitError):
            simulate_pattern(circuit, {"a": 1})

    def test_output_pattern(self):
        circuit = c17()
        assignment = {"G1": 1, "G2": 0, "G3": 1, "G6": 1, "G7": 0}
        out = compile_circuit(circuit).eval_outputs_sliced(assignment, 1)
        assert len(out) == 2
        assert all(v in (0, 1) for v in out)


class TestPackedSimulation:
    def test_width_packs_patterns(self):
        circuit = paper_example_circuit()
        # Pack all 16 patterns at once and compare with scalar runs.
        values, width = exhaustive_input_values(["a", "b", "c", "d"])
        packed = simulate(circuit, values, width=width)
        for pattern in range(16):
            a, b, c, d = ((pattern >> i) & 1 for i in range(4))
            expected = majority_or_d(a, b, c, d)
            assert (packed["y"] >> pattern) & 1 == expected

    def test_targets_skip_unneeded_inputs(self):
        engine = compile_circuit(c17())
        # Only G10's cone (G1, G3) is required.
        values = {"G1": 1, "G3": 0}
        assert engine.node_values(("G10",), values, width=1) == (1,)
        with pytest.raises(CircuitError, match="no value provided"):
            engine.node_values(("G22",), values, width=1)

    def test_bad_width_rejected(self):
        circuit = paper_example_circuit()
        with pytest.raises(CircuitError):
            simulate(circuit, {}, width=0)

    def test_values_masked_to_width(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        values = simulate(circuit, {"a": 0b111111}, width=2)
        assert values["y"] == 0b11


class TestTruthTable:
    def test_paper_example(self):
        assert truth_table(paper_example_circuit()) == 0xFFE8

    def test_explicit_node(self):
        circuit = paper_example_circuit()
        # ab = a AND b: bit j set iff bits 0 and 1 of j are set.
        table = truth_table(circuit, "ab")
        for pattern in range(16):
            assert (table >> pattern) & 1 == ((pattern & 3) == 3)

    def test_multi_output_needs_explicit_node(self):
        with pytest.raises(CircuitError):
            truth_table(c17())

    def test_too_many_inputs_rejected(self):
        circuit = generate_random_circuit("big", 25, 1, 60, seed=1)
        with pytest.raises(CircuitError):
            truth_table(circuit, circuit.outputs[0])

    def test_exhaustive_patterns_are_canonical(self):
        values, width = exhaustive_input_values(["p", "q"])
        assert width == 4
        assert values["p"] == 0b1010
        assert values["q"] == 0b1100


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pattern=st.integers(min_value=0, max_value=255),
)
def test_packed_equals_scalar_on_random_circuits(seed, pattern):
    """One wide simulation agrees with per-pattern scalar simulation."""
    circuit = generate_random_circuit("rnd", 8, 3, 40, seed=seed)
    inputs = circuit.inputs
    assignment = {
        name: (pattern >> i) & 1 for i, name in enumerate(inputs)
    }
    scalar = simulate_pattern(circuit, assignment)
    values, width = exhaustive_input_values(list(inputs))
    packed = simulate(circuit, values, width=width)
    for output in circuit.outputs:
        assert (packed[output] >> pattern) & 1 == scalar[output]
