"""Known-good vectors for the circuit library (c17, paper example)."""

from __future__ import annotations

import pytest

from repro.circuit.library import PAPER_EXAMPLE_CUBE, paper_example_circuit
from repro.circuit.simulate import simulate_pattern
from tests.circuits import c17


class TestC17Vectors:
    # Hand-computed vectors for the genuine ISCAS'85 c17 netlist.
    @pytest.mark.parametrize(
        "g1,g2,g3,g6,g7,g22,g23",
        [
            # NAND-by-NAND: G10=~(G1&G3) G11=~(G3&G6) G16=~(G2&G11)
            #               G19=~(G11&G7) G22=~(G10&G16) G23=~(G16&G19)
            (0, 0, 0, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 1, 0),
            (0, 1, 1, 1, 0, 0, 0),
            (1, 1, 1, 1, 1, 1, 0),
            (0, 0, 1, 1, 1, 0, 0),
            (1, 1, 0, 0, 0, 1, 1),
        ],
    )
    def test_truth_vectors(self, g1, g2, g3, g6, g7, g22, g23):
        values = simulate_pattern(
            c17(), {"G1": g1, "G2": g2, "G3": g3, "G6": g6, "G7": g7}
        )
        assert values["G22"] == g22
        assert values["G23"] == g23

    def test_all_gates_nand(self):
        circuit = c17()
        assert circuit.num_gates == 6
        from repro.circuit.gates import GateType

        assert all(
            circuit.gate_type(g) is GateType.NAND for g in circuit.gates
        )


class TestPaperExample:
    def test_cube_constant(self):
        assert PAPER_EXAMPLE_CUBE == (1, 0, 0, 1)

    def test_function_is_majority_or_d(self):
        circuit = paper_example_circuit()
        for pattern in range(16):
            a, b, c, d = ((pattern >> i) & 1 for i in range(4))
            expected = ((a & b) | (b & c) | (c & a) | d) & 1
            values = simulate_pattern(
                circuit, {"a": a, "b": b, "c": c, "d": d}
            )
            assert values["y"] == expected

    def test_interface(self):
        circuit = paper_example_circuit()
        assert circuit.inputs == ("a", "b", "c", "d")
        assert circuit.outputs == ("y",)
        assert not circuit.key_inputs
