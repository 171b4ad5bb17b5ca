"""Unit tests for the comparator/popcount circuit builders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.simulate import exhaustive_input_values, simulate
from repro.errors import LockingError
from repro.locking.comparators import (
    add_cube_detector,
    add_difference_bits,
    add_equality_comparator,
    add_hamming_distance_equals,
    add_popcount,
    add_popcount_equals,
)


def fresh(names):
    circuit = Circuit("t")
    for name in names:
        circuit.add_input(name)
    return circuit


def exhaustive(circuit, node, names):
    values, width = exhaustive_input_values(list(names))
    return simulate(circuit, values, width=width)[node], width


class TestCubeDetector:
    @pytest.mark.parametrize(
        "cube", [(0,), (1,), (1, 0), (1, 0, 0, 1), (0, 0, 0, 0, 0)]
    )
    def test_detects_exactly_its_cube(self, cube):
        names = [f"x{i}" for i in range(len(cube))]
        circuit = fresh(names)
        top = add_cube_detector(circuit, names, list(cube))
        circuit.add_output(top)
        table, width = exhaustive(circuit, top, names)
        expected_pattern = sum(bit << i for i, bit in enumerate(cube))
        for pattern in range(width):
            assert ((table >> pattern) & 1) == (pattern == expected_pattern)

    def test_width_mismatch_rejected(self):
        circuit = fresh(["a"])
        with pytest.raises(LockingError):
            add_cube_detector(circuit, ["a"], [1, 0])

    def test_non_binary_cube_rejected(self):
        circuit = fresh(["a"])
        with pytest.raises(LockingError):
            add_cube_detector(circuit, ["a"], [2])


class TestEqualityComparator:
    def test_equality_truth_table(self):
        names = ["a0", "a1", "b0", "b1"]
        circuit = fresh(names)
        top = add_equality_comparator(circuit, ["a0", "a1"], ["b0", "b1"])
        circuit.add_output(top)
        table, width = exhaustive(circuit, top, names)
        for pattern in range(width):
            a = pattern & 3
            b = (pattern >> 2) & 3
            assert ((table >> pattern) & 1) == (a == b)

    def test_width_mismatch_rejected(self):
        circuit = fresh(["a", "b"])
        with pytest.raises(LockingError):
            add_equality_comparator(circuit, ["a"], ["a", "b"])


class TestDifferenceBits:
    def test_against_names(self):
        circuit = fresh(["a", "b"])
        bits = add_difference_bits(circuit, ["a"], ["b"])
        circuit.add_output(bits[0])
        table, _ = exhaustive(circuit, bits[0], ["a", "b"])
        assert table == 0b0110  # XOR

    def test_against_constants_fold(self):
        circuit = fresh(["a", "b"])
        bits = add_difference_bits(circuit, ["a", "b"], [0, 1])
        # Constant 0 folds to a wire, constant 1 to an inverter.
        assert bits[0] == "a"
        assert circuit.gate_type(bits[1]).value == "not"

    def test_bad_constant_rejected(self):
        circuit = fresh(["a"])
        with pytest.raises(LockingError):
            add_difference_bits(circuit, ["a"], [7])


class TestPopcount:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_counts_exactly(self, width):
        names = [f"x{i}" for i in range(width)]
        circuit = fresh(names)
        sum_bits = add_popcount(circuit, names)
        for bit in sum_bits:
            if not circuit.has_node(bit):
                pytest.fail(f"missing sum bit {bit}")
        values, sim_width = exhaustive_input_values(names)
        results = simulate(circuit, values, width=sim_width)
        for pattern in range(sim_width):
            expected = bin(pattern).count("1")
            got = sum(
                ((results[bit] >> pattern) & 1) << index
                for index, bit in enumerate(sum_bits)
            )
            assert got == expected, (width, pattern)

    def test_empty_rejected(self):
        circuit = fresh(["a"])
        with pytest.raises(LockingError):
            add_popcount(circuit, [])


class TestPopcountEquals:
    @pytest.mark.parametrize("width,target", [(3, 0), (3, 2), (4, 4), (6, 3)])
    def test_threshold(self, width, target):
        names = [f"x{i}" for i in range(width)]
        circuit = fresh(names)
        top = add_popcount_equals(circuit, names, target)
        circuit.add_output(top)
        table, sim_width = exhaustive(circuit, top, names)
        for pattern in range(sim_width):
            expected = bin(pattern).count("1") == target
            assert ((table >> pattern) & 1) == expected

    def test_impossible_value_rejected(self):
        circuit = fresh(["a", "b"])
        with pytest.raises(LockingError):
            add_popcount_equals(circuit, ["a", "b"], 3)


class TestHammingDistanceEquals:
    def test_vs_key_names(self):
        names = ["x0", "x1", "k0", "k1"]
        circuit = fresh(names)
        top = add_hamming_distance_equals(
            circuit, ["x0", "x1"], ["k0", "k1"], 1
        )
        circuit.add_output(top)
        table, width = exhaustive(circuit, top, names)
        for pattern in range(width):
            x = pattern & 3
            k = (pattern >> 2) & 3
            assert ((table >> pattern) & 1) == (bin(x ^ k).count("1") == 1)


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_hd_comparator_against_constants_property(width, data):
    """strip_h semantics: 1 exactly on the Hamming shell of the cube."""
    cube = [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(width)]
    h = data.draw(st.integers(min_value=0, max_value=width))
    names = [f"x{i}" for i in range(width)]
    circuit = fresh(names)
    top = add_hamming_distance_equals(circuit, names, cube, h)
    circuit.add_output(top)
    values, sim_width = exhaustive_input_values(names)
    table = simulate(circuit, values, width=sim_width)[top]
    cube_pattern = sum(bit << i for i, bit in enumerate(cube))
    for pattern in range(sim_width):
        distance = bin(pattern ^ cube_pattern).count("1")
        assert ((table >> pattern) & 1) == (distance == h)
