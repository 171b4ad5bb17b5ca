"""Tests for the AIG, structural hashing and the optimization pipeline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.aig import FALSE_LIT, TRUE_LIT, Aig, aig_from_circuit, aig_to_circuit
from repro.circuit.analysis import dangling_nodes
from repro.circuit.bench_io import write_bench
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.opt import optimize, sweep
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import exhaustive_input_values, simulate
from tests.circuits import c17


class TestAigPrimitives:
    def test_constants(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, FALSE_LIT) == FALSE_LIT
        assert aig.and_(a, TRUE_LIT) == a
        assert aig.and_(FALSE_LIT, FALSE_LIT) == FALSE_LIT

    def test_idempotence_and_complement(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, a) == a
        assert aig.and_(a, a ^ 1) == FALSE_LIT

    def test_structural_hashing_dedupes(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        first = aig.and_(a, b)
        second = aig.and_(b, a)  # commuted
        assert first == second
        assert sum(1 for node in aig._nodes if node is not None) == 1

    def test_or_xor_via_demorgan(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        or_lit = aig.or_(a, b)
        xor_lit = aig.xor_(a, b)
        xnor_lit = aig.xor_(a, b) ^ 1
        values = {"a": 0b1010, "b": 0b1100}
        results = aig.evaluate(values, [or_lit, xor_lit, xnor_lit], mask=0b1111)
        assert results == [0b1110, 0b0110, 0b1001]

    def test_and_many_balanced(self):
        aig = Aig()
        lits = [aig.add_input(f"i{k}") for k in range(8)]
        out = aig.and_many(lits)
        values = {f"i{k}": 1 for k in range(8)}
        assert aig.evaluate(values, [out])[0] == 1
        values["i3"] = 0
        assert aig.evaluate(values, [out])[0] == 0

    def test_xor_many_parity(self):
        aig = Aig()
        lits = [aig.add_input(f"i{k}") for k in range(5)]
        out = aig.xor_many(lits)
        for pattern in range(32):
            values = {f"i{k}": (pattern >> k) & 1 for k in range(5)}
            expected = bin(pattern).count("1") % 2
            assert aig.evaluate(values, [out])[0] == expected


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [paper_example_circuit, c17])
    def test_known_circuits(self, builder):
        original = builder()
        aig, lit_of = aig_from_circuit(original)
        outputs = {name: lit_of[name] for name in original.outputs}
        rebuilt = aig_to_circuit(aig, outputs, name=original.name)
        assert check_equivalence(original, rebuilt).proved

    def test_key_marking_survives(self):
        circuit = Circuit("locked")
        circuit.add_input("a")
        circuit.add_input("k0", key=True)
        circuit.add_gate("y", GateType.XNOR, ["a", "k0"])
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        assert rebuilt.key_inputs == ("k0",)

    def test_dangling_inputs_survive(self):
        circuit = Circuit("partial")
        circuit.add_input("a")
        circuit.add_input("unused")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        assert "unused" in rebuilt.inputs

    def test_constant_output(self):
        circuit = Circuit("const")
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_gate("y", GateType.AND, ["a", "na"])  # always 0
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        values = simulate(rebuilt, {"a": 0b01}, width=2)
        assert values[rebuilt.outputs[0]] == 0

    def test_output_directly_on_input(self):
        circuit = Circuit("wire")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        assert check_equivalence(circuit, rebuilt).proved

    def test_inverted_output(self):
        circuit = Circuit("inv")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        assert check_equivalence(circuit, rebuilt).proved


class TestOptimize:
    def test_only_and_not_buf_gates(self):
        rebuilt = optimize(c17())
        allowed = {GateType.AND, GateType.NOT, GateType.BUF,
                   GateType.CONST0, GateType.INPUT}
        assert {rebuilt.gate_type(n) for n in rebuilt.nodes} <= allowed

    def test_internal_names_are_scrubbed(self):
        # After strash the original internal node names must be gone —
        # this is what makes the attack non-trivial (paper Figure 3).
        original = paper_example_circuit()
        rebuilt = optimize(original)
        internal = {"ab", "bc", "ca", "maj"}
        assert not internal & set(rebuilt.nodes)

    def test_shared_logic_is_merged(self):
        circuit = Circuit("dup")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g1", GateType.AND, ["a", "b"])
        circuit.add_gate("g2", GateType.AND, ["a", "b"])  # duplicate
        circuit.add_gate("y", GateType.OR, ["g1", "g2"])  # = g1
        circuit.add_output("y")
        rebuilt = optimize(circuit)
        assert rebuilt.num_gates < circuit.num_gates

    def test_multiple_rounds_stable(self):
        once = optimize(c17())
        twice = optimize(once)
        assert check_equivalence(once, twice).proved
        assert write_bench(twice) == write_bench(once)

    def test_no_dangling_gates_after_optimize(self):
        circuit = generate_random_circuit("rnd", 10, 3, 80, seed=9)
        rebuilt = optimize(circuit)
        dead = dangling_nodes(rebuilt)
        dead = {n for n in dead if rebuilt.gate_type(n) is not GateType.INPUT}
        assert not dead


class TestSweep:
    def test_removes_dead_gates(self):
        circuit = paper_example_circuit()
        circuit.add_gate("dead", GateType.NOT, ["a"])
        cleaned = sweep(circuit)
        assert not cleaned.has_node("dead")
        assert check_equivalence(circuit, cleaned).proved

    def test_keeps_inputs(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_input("unused")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        cleaned = sweep(circuit)
        assert "unused" in cleaned.inputs

    def test_noop_when_clean(self):
        circuit = paper_example_circuit()
        cleaned = sweep(circuit)
        assert set(cleaned.nodes) == set(circuit.nodes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_optimize_preserves_function_on_random_circuits(seed):
    """Property: strash round-trip is a semantics-preserving transform."""
    circuit = generate_random_circuit("rnd", 7, 3, 45, seed=seed)
    rebuilt = optimize(circuit)
    values, width = exhaustive_input_values(list(circuit.inputs))
    before = simulate(circuit, values, width=width)
    after = simulate(rebuilt, values, width=width)
    for output in circuit.outputs:
        assert before[output] == after[output]
