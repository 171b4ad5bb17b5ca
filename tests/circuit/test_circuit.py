"""Tests for the Circuit DAG and structural analyses."""

from __future__ import annotations

import pytest

from repro.circuit.analysis import (
    dangling_nodes,
    extract_cone,
    support,
    support_table,
    transitive_fanin,
)
from repro.circuit import circuit as circuit_module
from repro.circuit.circuit import Circuit, topological_region_order
from repro.circuit.gates import GateType, check_arity, evaluate_gate
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import CircuitError
from tests.circuits import c17


def simple_circuit() -> Circuit:
    c = Circuit("t")
    c.add_input("a")
    c.add_input("b")
    c.add_input("k", key=True)
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.XOR, ["g1", "k"])
    c.add_output("g2")
    return c


class TestConstruction:
    def test_inputs_ordered(self):
        c = simple_circuit()
        assert c.inputs == ("a", "b", "k")
        assert c.circuit_inputs == ("a", "b")
        assert c.key_inputs == ("k",)

    def test_is_key_input(self):
        c = simple_circuit()
        assert c.is_key_input("k")
        assert not c.is_key_input("a")

    def test_duplicate_node_rejected(self):
        c = simple_circuit()
        with pytest.raises(CircuitError):
            c.add_input("a")

    def test_empty_name_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().add_input("")

    def test_bad_arity_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("g", GateType.NOT, ["a", "a"])

    def test_add_gate_rejects_input_type(self):
        with pytest.raises(CircuitError):
            Circuit().add_gate("g", GateType.INPUT, [])

    def test_const_values(self):
        c = Circuit()
        c.add_const("zero", 0)
        c.add_const("one", 1)
        assert c.gate_type("zero") is GateType.CONST0
        assert c.gate_type("one") is GateType.CONST1
        with pytest.raises(CircuitError):
            c.add_const("two", 2)

    def test_add_node_dispatches_on_type(self):
        c = Circuit()
        c.add_node("a", GateType.INPUT, (), key=True)
        c.add_node("b", GateType.INPUT, ())
        c.add_node("one", GateType.CONST1, ())
        c.add_node("zero", GateType.CONST0, ())
        c.add_node("g", GateType.AND, ["a", "b", "one"])
        assert c.nodes == ("a", "b", "one", "zero", "g")
        assert c.key_inputs == ("a",)
        assert c.gate_type("one") is GateType.CONST1
        assert c.gate_type("zero") is GateType.CONST0
        assert c.fanins("g") == ("a", "b", "one")

    def test_duplicate_output_rejected(self):
        c = simple_circuit()
        with pytest.raises(CircuitError):
            c.add_output("g2")

    def test_forward_references_allowed(self):
        c = Circuit()
        c.add_gate("g", GateType.AND, ["a", "b"])  # a, b not yet defined
        c.add_input("a")
        c.add_input("b")
        c.add_output("g")
        c.validate()

    def test_fresh_name_unique(self):
        c = simple_circuit()
        n1 = c.fresh_name("t")
        c.add_input(n1)
        n2 = c.fresh_name("t")
        assert n1 != n2

    def test_num_gates_excludes_inputs(self):
        c = simple_circuit()
        assert c.num_gates == 2
        assert len(c.nodes) == 5


class TestValidation:
    def test_cycle_detected(self):
        c = Circuit()
        c.add_gate("p", GateType.AND, ["q", "q"])
        c.add_gate("q", GateType.NOT, ["p"])
        c.add_output("p")
        with pytest.raises(CircuitError):
            c.validate()

    def test_self_loop_detected(self):
        c = Circuit()
        c.add_gate("p", GateType.BUF, ["p"])
        c.add_output("p")
        with pytest.raises(CircuitError):
            c.validate()

    def test_undefined_fanin_detected(self):
        c = Circuit()
        c.add_gate("g", GateType.NOT, ["ghost"])
        c.add_output("g")
        with pytest.raises(CircuitError):
            c.validate()

    def test_undefined_output_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("ghost")
        with pytest.raises(CircuitError):
            c.validate()

    def test_no_outputs_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.validate()


class TestTopologicalOrder:
    def test_fanins_before_fanouts(self):
        c = c17()
        order = c.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for node in c.nodes:
            for fanin in c.fanins(node):
                assert position[fanin] < position[node]

    def test_targets_restrict_cone(self):
        c = c17()
        order = c.topological_order(targets=["G10"])
        assert set(order) == {"G1", "G3", "G10"}

    def test_targets_order_is_memoized_per_structure(self, monkeypatch):
        sorts = []

        def counted(fanins, wanted):
            sorts.append(tuple(wanted))
            return topological_region_order(fanins, wanted)

        monkeypatch.setattr(circuit_module, "topological_region_order", counted)
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.NOT, ["a"])
        c.add_output("y")
        first = c.topological_order(targets=["y"])
        assert first == ["a", "y"]
        first.append("corrupted")  # the caller's copy, not the memo
        assert c.topological_order(targets=("y",)) == ["a", "y"]
        assert sorts == [("y",)]
        c.add_input("b")
        c.add_gate("z", GateType.AND, ["y", "b"])
        c.add_output("z")
        assert c.topological_order(targets=["y"]) == ["a", "y"]
        assert c.topological_order(targets=["z"]) == ["a", "y", "b", "z"]
        assert sorts == [("y",), ("y",), ("z",)]

    def test_deep_chain_no_recursion_limit(self):
        c = Circuit()
        c.add_input("x0")
        for i in range(5000):
            c.add_gate(f"x{i + 1}", GateType.NOT, [f"x{i}"])
        c.add_output("x5000")
        assert len(c.topological_order()) == 5001


class TestAnalysis:
    def test_transitive_fanin(self):
        c = c17()
        assert transitive_fanin(c, "G10") == {"G1", "G3"}
        assert "G11" in transitive_fanin(c, "G22")

    def test_support(self):
        c = c17()
        assert support(c, "G22") == {"G1", "G2", "G3", "G6"}
        assert support(c, "G23") == {"G2", "G3", "G6", "G7"}

    def test_support_of_input_is_itself(self):
        c = c17()
        assert support(c, "G1") == {"G1"}

    def test_support_table_matches_pointwise(self):
        c = c17()
        table = support_table(c)
        for node in c.nodes:
            assert table[node] == support(c, node)

    @pytest.mark.parametrize("seed", range(4))
    def test_support_table_matches_set_union_reference(self, seed):
        c = generate_random_circuit("supp", 10, 3, 80, seed=seed)
        reference: dict[str, set[str]] = {}
        for node in c.topological_order():
            if c.gate_type(node) is GateType.INPUT:
                reference[node] = {node}
            else:
                reference[node] = set().union(
                    *(reference[f] for f in c.fanins(node))
                )
        assert support_table(c) == reference

    def test_support_table_shares_sets_along_a_chain(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.AND, ["a", "b"])
        c.add_gate("n1", GateType.NOT, ["g"])
        c.add_gate("n2", GateType.BUF, ["n1"])
        c.add_gate("n3", GateType.NOT, ["n2"])
        c.add_gate("h", GateType.OR, ["n3", "a"])  # no wider than n3
        c.add_output("h")
        table = support_table(c)
        assert table["g"] == {"a", "b"}
        assert len({id(table[n]) for n in ("g", "n1", "n2", "n3", "h")}) == 1

    def test_support_of_constant_is_empty(self):
        c = Circuit()
        c.add_const("z", 0)
        table = support_table(c)
        assert table["z"] == frozenset()

    def test_extract_cone(self):
        c = c17()
        cone = extract_cone(c, "G22")
        assert cone.outputs == ("G22",)
        assert set(cone.inputs) == {"G1", "G2", "G3", "G6"}
        assert cone.num_gates == 4

    def test_extract_cone_preserves_key_marking(self):
        c = simple_circuit()
        cone = extract_cone(c, "g2")
        assert cone.is_key_input("k")

    def test_dangling_nodes(self):
        c = simple_circuit()
        c.add_gate("dead", GateType.NOT, ["a"])
        assert dangling_nodes(c) == {"dead"}


class TestTransforms:
    def test_copy_independent(self):
        c = simple_circuit()
        d = c.copy()
        d.add_input("extra")
        assert not c.has_node("extra")

    def test_renamed(self):
        c = simple_circuit()
        d = c.renamed({"g2": "out", "k": "key0"})
        assert d.outputs == ("out",)
        assert d.key_inputs == ("key0",)
        assert d.fanins("out") == ("g1", "key0")

    def test_renamed_collision_rejected(self):
        c = simple_circuit()
        with pytest.raises(CircuitError):
            c.renamed({"g1": "g2"})

    def test_fanouts(self):
        c = c17()
        fanouts = c.fanouts()
        assert set(fanouts["G11"]) == {"G16", "G19"}
        assert fanouts["G22"] == []


class TestGateSemantics:
    @pytest.mark.parametrize(
        "gate_type,values,expected",
        [
            (GateType.AND, [0b1100, 0b1010], 0b1000),
            (GateType.NAND, [0b1100, 0b1010], 0b0111),
            (GateType.OR, [0b1100, 0b1010], 0b1110),
            (GateType.NOR, [0b1100, 0b1010], 0b0001),
            (GateType.XOR, [0b1100, 0b1010], 0b0110),
            (GateType.XNOR, [0b1100, 0b1010], 0b1001),
            (GateType.NOT, [0b1100], 0b0011),
            (GateType.BUF, [0b1100], 0b1100),
            (GateType.CONST0, [], 0b0000),
            (GateType.CONST1, [], 0b1111),
        ],
    )
    def test_packed_evaluation(self, gate_type, values, expected):
        assert evaluate_gate(gate_type, values, 0b1111) == expected

    def test_check_arity_unbounded(self):
        check_arity(GateType.AND, 7)

    def test_check_arity_violation(self):
        with pytest.raises(CircuitError):
            check_arity(GateType.BUF, 2)
