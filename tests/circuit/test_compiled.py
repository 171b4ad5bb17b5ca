"""Tests for the compile-once simulation engine.

The load-bearing guarantee: the engine's one evaluation path,
:meth:`CompiledCircuit.node_values`, and every view over it are
bit-for-bit identical to the interpreted reference on arbitrary
circuits, and structural mutation invalidates every cached artifact.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit.circuit import Circuit
from repro.attacks.oracle import IOOracle
from repro.circuit.backends import resolve_backend
from repro.circuit.compiled import (
    canonical_input_words,
    compile_circuit,
    pack_patterns,
)
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.sharding import sweep_popcounts, sweep_truth_table
from repro.circuit.simulate import (
    exhaustive_input_values,
    simulate,
    simulate_interpreted,
    truth_table,
)
from repro.errors import CircuitError
from tests.circuits import c17


class TestEquivalenceWithInterpreter:
    def test_random_circuits_bit_for_bit(self):
        """Compiled output equals the interpreter on 100+ random circuits."""
        rng = random.Random(7)
        checked = 0
        for seed in range(102):
            num_inputs = 2 + seed % 9
            circuit = generate_random_circuit(
                f"rnd{seed}",
                num_inputs,
                1 + seed % 4,
                num_inputs + 8 + seed % 37,
                seed=seed,
            )
            width = 64
            values = {
                name: rng.getrandbits(width) for name in circuit.inputs
            }
            interpreted = simulate_interpreted(circuit, values, width=width)
            compiled = simulate(circuit, values, width=width)
            assert compiled == interpreted, f"mismatch on seed {seed}"
            engine = compile_circuit(circuit)
            nodes = circuit.gates[::3]
            assert engine.node_values(nodes, values, width) == tuple(
                interpreted[name] for name in nodes
            ), f"node_values mismatch on seed {seed}"
            sliced = engine.eval_outputs_sliced(values, width=width)
            assert sliced == tuple(
                interpreted[name] for name in circuit.outputs
            ), f"sliced mismatch on seed {seed}"
            assert sweep_popcounts(circuit, values, width) == {
                node: word.bit_count() for node, word in interpreted.items()
            }, f"popcount mismatch on seed {seed}"
            node = circuit.outputs[-1]
            table, support = sweep_truth_table(circuit, node)
            exhaustive, table_width = exhaustive_input_values(support)
            assert table == simulate_interpreted(
                circuit, exhaustive, width=table_width, targets=[node]
            )[node], f"truth table mismatch on seed {seed}"
            checked += 1
        assert checked >= 100

    def test_targets_region_matches_interpreter(self):
        circuit = c17()
        engine = compile_circuit(circuit)
        values = {name: 0b1011 for name in circuit.inputs}
        for target in circuit.gates:
            interpreted = simulate_interpreted(
                circuit, values, width=4, targets=[target]
            )
            region = tuple(interpreted)
            assert engine.node_values(region, values, 4) == tuple(
                interpreted.values()
            )

    def test_every_gate_type_compiles(self):
        circuit = Circuit("allgates")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_const("zero", 0)
        circuit.add_const("one", 1)
        for i, gate_type in enumerate(
            (
                GateType.BUF,
                GateType.NOT,
                GateType.AND,
                GateType.NAND,
                GateType.OR,
                GateType.NOR,
                GateType.XOR,
                GateType.XNOR,
            )
        ):
            fanins = ["a"] if gate_type in (GateType.BUF, GateType.NOT) else [
                "a",
                "b",
            ]
            circuit.add_gate(f"g{i}", gate_type, fanins)
            circuit.add_output(f"g{i}")
        values, width = exhaustive_input_values(["a", "b"])
        assert simulate(circuit, values, width=width) == simulate_interpreted(
            circuit, values, width=width
        )

    def test_wide_gates_compile(self):
        circuit = Circuit("wide")
        names = [circuit.add_input(f"x{i}") for i in range(7)]
        circuit.add_gate("conj", GateType.AND, names)
        circuit.add_gate("par", GateType.XOR, names)
        circuit.add_output("conj")
        circuit.add_output("par")
        values, width = exhaustive_input_values(names)
        assert simulate(circuit, values, width=width) == simulate_interpreted(
            circuit, values, width=width
        )


class TestEngineEntryPoints:
    def test_eval_outputs_order_and_values(self):
        circuit = c17()
        engine = compile_circuit(circuit)
        values = {name: 0b0110 for name in circuit.inputs}
        full = simulate(circuit, values, width=4)
        assert engine.eval_outputs_sliced(values, width=4) == tuple(
            full[name] for name in circuit.outputs
        )

    def test_node_values_subset(self):
        circuit = paper_example_circuit()
        engine = compile_circuit(circuit)
        values, width = exhaustive_input_values(list(circuit.inputs))
        full = simulate(circuit, values, width=width)
        nodes = ("ab", "y")
        assert engine.node_values(nodes, values, width=width) == tuple(
            full[n] for n in nodes
        )

    def test_query_batch_matches_single_queries(self):
        circuit = c17()
        oracle = IOOracle(circuit)
        rng = random.Random(3)
        patterns = [
            {name: rng.getrandbits(1) for name in circuit.inputs}
            for _ in range(17)
        ]
        batched = oracle.query_batch(patterns)
        for pattern, row in zip(patterns, batched):
            values = simulate(circuit, pattern, width=1)
            assert row == {o: values[o] for o in circuit.outputs}

    def test_missing_input_raises(self):
        circuit = paper_example_circuit()
        with pytest.raises(CircuitError, match="no value provided"):
            simulate(circuit, {"a": 1})

    def test_bad_width_rejected(self):
        engine = compile_circuit(paper_example_circuit())
        values = {name: 1 for name in "abcd"}
        with pytest.raises(CircuitError, match="width must be"):
            engine.node_values(("y",), values, width=0)
        with pytest.raises(CircuitError, match="width must be"):
            engine.eval_outputs_sliced(values, width=0)

    def test_unknown_target_raises(self):
        engine = compile_circuit(paper_example_circuit())
        with pytest.raises(CircuitError, match="undefined node"):
            engine.node_values(("nope",), {"a": 1}, width=1)

    def test_cone_inputs_in_declaration_order(self):
        circuit = paper_example_circuit()
        assert sweep_truth_table(circuit, "ab")[1] == ("a", "b")
        assert sweep_truth_table(circuit, "a")[1] == ("a",)


class TestCompileCacheInvalidation:
    def test_cache_hit_same_structure(self):
        circuit = c17()
        assert compile_circuit(circuit) is compile_circuit(circuit)

    def test_mutation_recompiles(self):
        circuit = Circuit("mut")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.AND, ["a", "b"])
        circuit.add_output("y")
        before = compile_circuit(circuit)
        assert simulate(circuit, {"a": 1, "b": 1})["y"] == 1

        circuit.add_gate("z", GateType.NOT, ["y"])
        circuit.replace_output("y", "z")
        after = compile_circuit(circuit)
        assert after is not before
        values = simulate(circuit, {"a": 1, "b": 1})
        assert values["z"] == 0
        assert compile_circuit(circuit).eval_outputs_sliced(
            {"a": 1, "b": 1}, width=1
        ) == (0,)

    def test_stale_engine_snapshot_is_frozen(self):
        """A held CompiledCircuit keeps answering for the old structure."""
        circuit = Circuit("frozen")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        old = compile_circuit(circuit)
        circuit.add_gate("z", GateType.NOT, ["y"])
        circuit.replace_output("y", "z")
        assert old.eval_outputs_sliced({"a": 1}, 1) == (1,)  # old structure
        assert compile_circuit(circuit).eval_outputs_sliced(
            {"a": 1}, 1
        ) == (0,)

    def test_memoized_properties_track_mutation(self):
        circuit = Circuit("props")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        assert circuit.inputs == ("a",)
        assert circuit.topological_order() == ["a", "y"]
        assert circuit.fanouts()["a"] == ["y"]
        circuit.add_input("k", key=True)
        circuit.add_gate("y2", GateType.XOR, ["y", "k"])
        circuit.add_output("y2")
        assert circuit.inputs == ("a", "k")
        assert circuit.key_inputs == ("k",)
        assert circuit.gates == ("y", "y2")
        assert circuit.outputs == ("y", "y2")
        assert circuit.topological_order() == ["a", "y", "k", "y2"]
        assert circuit.fanouts()["k"] == ["y2"]

    def test_fanouts_copy_is_mutation_safe(self):
        circuit = c17()
        first = circuit.fanouts()
        first["G11"].append("corrupted")
        assert "corrupted" not in circuit.fanouts()["G11"]


class TestCanonicalWords:
    def test_words_are_memoized(self):
        assert canonical_input_words(6) is canonical_input_words(6)

    def test_words_match_direct_construction(self):
        for n in range(1, 11):
            words = canonical_input_words(n)
            width = 1 << n
            for i, word in enumerate(words):
                expected = 0
                for j in range(width):
                    if (j >> i) & 1:
                        expected |= 1 << j
                assert word == expected, (n, i)

    def test_limit_enforced(self):
        with pytest.raises(CircuitError):
            canonical_input_words(25)


class TestConeTruthTable:
    def test_wide_circuit_small_cone(self):
        """Regression: the 24-input limit applies to the cone, not the
        circuit — a 30-input netlist with a 2-input target works."""
        circuit = Circuit("wide")
        names = [circuit.add_input(f"x{i}") for i in range(30)]
        circuit.add_gate("small", GateType.AND, [names[3], names[20]])
        circuit.add_gate("rest", GateType.OR, names)
        circuit.add_output("small")
        circuit.add_output("rest")
        table = truth_table(circuit, "small")
        assert table == 0b1000  # AND over (x3, x20) in support order
        cone_table, support = sweep_truth_table(circuit, "small")
        assert support == ("x3", "x20")
        assert cone_table == 0b1000

    def test_wide_cone_still_rejected(self):
        circuit = Circuit("toowide")
        names = [circuit.add_input(f"x{i}") for i in range(25)]
        circuit.add_gate("conj", GateType.AND, names)
        circuit.add_output("conj")
        with pytest.raises(CircuitError):
            truth_table(circuit, "conj")

    def test_small_circuit_keeps_full_input_indexing(self):
        """Published semantics on ≤24-input circuits are unchanged."""
        circuit = paper_example_circuit()
        table = truth_table(circuit, "ab")
        for pattern in range(16):
            assert (table >> pattern) & 1 == ((pattern & 3) == 3)

    def test_cone_table_matches_scalar_simulation(self):
        circuit = generate_random_circuit("ctt", 10, 2, 35, seed=5)
        node = circuit.outputs[0]
        table, support = sweep_truth_table(circuit, node)
        from repro.circuit.simulate import simulate_pattern

        for pattern in range(1 << len(support)):
            assignment = {name: 0 for name in circuit.inputs}
            for i, name in enumerate(support):
                assignment[name] = (pattern >> i) & 1
            scalar = simulate_pattern(circuit, assignment)
            assert (table >> pattern) & 1 == scalar[node]


class TestSlicedInputForms:
    def test_packed_rows_and_dicts_agree(self):
        """Rows packed with ``pack_patterns`` evaluate as one row each."""
        circuit = generate_random_circuit("forms", 8, 3, 60, seed=21)
        rng = random.Random(2)
        patterns = 77
        dict_rows = [
            {name: rng.getrandbits(1) for name in circuit.inputs}
            for _ in range(patterns)
        ]
        packed = pack_patterns(circuit.inputs, dict_rows)
        engine = compile_circuit(circuit)
        words = engine.eval_outputs_sliced(packed, width=patterns)
        for j, row in enumerate(dict_rows):
            assert tuple((word >> j) & 1 for word in words) == (
                engine.eval_outputs_sliced(row, width=1)
            )

    def test_node_values_matches_interpreter(self):
        circuit = generate_random_circuit("nvs", 6, 2, 50, seed=31)
        engine = compile_circuit(circuit)
        rng = random.Random(4)
        width = 130
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        full = simulate_interpreted(circuit, values, width=width)
        nodes = tuple(circuit.gates[:5])
        assert engine.node_values(nodes, values, width=width) == tuple(
            full[n] for n in nodes
        )

    def test_oversized_input_words_are_masked(self):
        """Words wider than the evaluated width truncate to it."""
        circuit = generate_random_circuit("ovs", 5, 2, 30, seed=91)
        width = 65
        values = {
            name: ((1 << 130) | (7 << i))
            for i, name in enumerate(circuit.inputs)
        }
        masked = {
            name: word & ((1 << width) - 1) for name, word in values.items()
        }
        engine = compile_circuit(circuit)
        assert engine.eval_outputs_sliced(
            values, width=width
        ) == engine.eval_outputs_sliced(masked, width=width)


class TestPopcounts:
    def test_node_popcounts_match_simulation(self):
        circuit = generate_random_circuit("pc", 9, 4, 90, seed=41)
        rng = random.Random(6)
        width = 300
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        reference = simulate_interpreted(circuit, values, width=width)
        counts = sweep_popcounts(circuit, values, width)
        assert counts == {
            node: word.bit_count() for node, word in reference.items()
        }

    def test_bad_width_rejected(self):
        circuit = c17()
        with pytest.raises(CircuitError, match="width must be"):
            sweep_popcounts(circuit, {n: 1 for n in circuit.inputs}, 0)


class TestOracleSliced:
    def test_query_sliced_matches_query_batch(self):
        circuit = generate_random_circuit("orc", 7, 3, 60, seed=51)
        oracle = IOOracle(circuit)
        rng = random.Random(12)
        patterns = [
            {name: rng.getrandbits(1) for name in oracle.input_names}
            for _ in range(33)
        ]
        rows = oracle.query_batch(patterns)
        before = oracle.query_count
        words = oracle.query_sliced(patterns)
        assert oracle.query_count == before + len(patterns)
        for j, row in enumerate(rows):
            assert tuple(
                (word >> j) & 1 for word in words
            ) == tuple(row[name] for name in oracle.output_names)

    def test_query_sliced_empty(self):
        oracle = IOOracle(c17())
        assert oracle.query_sliced([]) == tuple(
            0 for _ in oracle.output_names
        )


def test_backend_is_packed_python_ints():
    assert resolve_backend(None) == "python"
