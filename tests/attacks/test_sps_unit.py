"""Focused unit tests for SPS internals (skew estimates, rewiring)."""

from __future__ import annotations

from repro.attacks.sps import SkewEstimate, estimate_signal_probabilities
from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType


class TestSkewEstimate:
    def test_skew_symmetric(self):
        assert SkewEstimate("n", 0.9).skew == SkewEstimate("n", 0.1).skew

    def test_unbiased_signal_has_zero_skew(self):
        assert SkewEstimate("n", 0.5).skew == 0.0

    def test_majority_value_rounding(self):
        assert SkewEstimate("n", 0.5).majority_value == 1
        assert SkewEstimate("n", 0.49).majority_value == 0


class TestEstimation:
    def test_and_tree_probability_decays(self):
        # AND of k independent inputs has probability 2^-k.
        circuit = Circuit("tree")
        names = [circuit.add_input(f"x{i}") for i in range(6)]
        circuit.add_gate("conj", GateType.AND, names)
        circuit.add_output("conj")
        probabilities = estimate_signal_probabilities(circuit)
        assert abs(probabilities["conj"].probability - 1 / 64) < 0.02

    def test_xor_is_unbiased(self):
        circuit = Circuit("x")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.XOR, ["a", "b"])
        circuit.add_output("y")
        probabilities = estimate_signal_probabilities(circuit)
        assert probabilities["y"].skew < 0.05

    def test_constant_nodes(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_const("one", 1)
        circuit.add_gate("y", GateType.AND, ["a", "one"])
        circuit.add_output("y")
        probabilities = estimate_signal_probabilities(circuit)
        assert probabilities["one"].probability == 1.0

    def test_seed_determinism(self):
        circuit = Circuit("d")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.NAND, ["a", "b"])
        circuit.add_output("y")
        first = estimate_signal_probabilities(circuit, seed=4)
        second = estimate_signal_probabilities(circuit, seed=4)
        assert first["y"].probability == second["y"].probability
