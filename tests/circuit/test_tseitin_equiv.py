"""Tests for Tseitin encoding and equivalence checking."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.analysis import extract_cone
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import exhaustive_input_values, simulate
from repro.circuit.tseitin import CircuitEncoding, encode_circuit
from repro.errors import CircuitError, EncodingError
from repro.locking.base import LockedCircuit
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget
from tests.circuits import c17


def tseitin_truth_table(circuit: Circuit, node: str) -> int:
    """Truth table of a node computed through the CNF encoding."""
    encoding = encode_circuit(extract_cone(circuit, node), Cnf())
    solver = Solver()
    solver.add_cnf(encoding.cnf)
    inputs = [n for n in circuit.inputs if n in encoding.var_of]
    table = 0
    for pattern in range(1 << len(inputs)):
        assumptions = []
        for i, name in enumerate(inputs):
            var = encoding.var_of[name]
            assumptions.append(var if (pattern >> i) & 1 else -var)
        status = solver.solve(assumptions=assumptions)
        assert status is SolveStatus.SAT
        if solver.model_value(encoding.var_of[node]):
            table |= 1 << pattern
    return table


class TestTseitin:
    @pytest.mark.parametrize(
        "gate_type",
        [
            GateType.AND,
            GateType.NAND,
            GateType.OR,
            GateType.NOR,
            GateType.XOR,
            GateType.XNOR,
        ],
    )
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_single_gate_matches_simulation(self, gate_type, arity):
        circuit = Circuit()
        names = [circuit.add_input(f"i{k}") for k in range(arity)]
        circuit.add_gate("g", gate_type, names)
        circuit.add_output("g")
        values, width = exhaustive_input_values(names)
        expected = simulate(circuit, values, width=width)["g"]
        assert tseitin_truth_table(circuit, "g") == expected

    @pytest.mark.parametrize("gate_type", [GateType.BUF, GateType.NOT])
    def test_unary_gates(self, gate_type):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", gate_type, ["a"])
        circuit.add_output("g")
        expected = 0b10 if gate_type is GateType.BUF else 0b01
        assert tseitin_truth_table(circuit, "g") == expected

    def test_constants(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_const("zero", 0)
        circuit.add_const("one", 1)
        circuit.add_gate("g", GateType.AND, ["a", "one"])
        circuit.add_gate("h", GateType.OR, ["a", "zero"])
        circuit.add_output("g")
        circuit.add_output("h")
        assert tseitin_truth_table(circuit, "g") == 0b10
        assert tseitin_truth_table(circuit, "h") == 0b10

    def test_whole_circuit_matches_simulation(self):
        circuit = paper_example_circuit()
        values, width = exhaustive_input_values(list(circuit.inputs))
        expected = simulate(circuit, values, width=width)["y"]
        assert tseitin_truth_table(circuit, "y") == expected

    def test_shared_vars_tie_instances(self):
        # Encode the same circuit twice with shared inputs: outputs must
        # always agree, i.e. out1 != out2 is UNSAT.
        circuit = paper_example_circuit()
        cnf = Cnf()
        shared = {name: cnf.new_var() for name in circuit.inputs}
        enc1 = encode_circuit(circuit, cnf, shared_vars=shared)
        enc2 = encode_circuit(circuit, cnf, shared_vars=shared)
        o1, o2 = enc1.lit("y"), enc2.lit("y")
        cnf.add_clause([o1, o2])
        cnf.add_clause([-o1, -o2])
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.UNSAT

    def test_no_outputs_no_targets_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(EncodingError):
            encode_circuit(circuit, Cnf())

    def test_missing_node_lit_rejected(self):
        circuit = paper_example_circuit()
        encoding = encode_circuit(extract_cone(circuit, "ab"), Cnf())
        with pytest.raises(EncodingError):
            encoding.lit("y")


def reference_encode_circuit(circuit, cnf, shared_vars=None) -> CircuitEncoding:
    """The node-by-node walk through ``Cnf.add_clause`` that
    :func:`encode_circuit` must reproduce clause for clause."""
    encoding = CircuitEncoding(cnf=cnf)
    var_of = encoding.var_of
    var_of.update(shared_vars or {})
    for node in circuit.topological_order(targets=list(circuit.outputs)):
        if node in var_of:
            continue
        gate_type = circuit.gate_type(node)
        out = var_of[node] = cnf.new_var()
        if gate_type is GateType.INPUT:
            continue
        if gate_type is GateType.CONST0:
            cnf.add_clause([-out])
            continue
        if gate_type is GateType.CONST1:
            cnf.add_clause([out])
            continue
        fanins = [var_of[f] for f in circuit.fanins(node)]
        if gate_type is GateType.BUF:
            cnf.add_clause([-out, fanins[0]])
            cnf.add_clause([out, -fanins[0]])
        elif gate_type is GateType.NOT:
            cnf.add_clause([-out, -fanins[0]])
            cnf.add_clause([out, fanins[0]])
        elif gate_type is GateType.AND:
            for lit in fanins:
                cnf.add_clause([-out, lit])
            cnf.add_clause([out] + [-lit for lit in fanins])
        elif gate_type is GateType.NAND:
            for lit in fanins:
                cnf.add_clause([out, lit])
            cnf.add_clause([-out] + [-lit for lit in fanins])
        elif gate_type is GateType.OR:
            for lit in fanins:
                cnf.add_clause([out, -lit])
            cnf.add_clause([-out] + fanins)
        elif gate_type is GateType.NOR:
            for lit in fanins:
                cnf.add_clause([-out, -lit])
            cnf.add_clause([out] + fanins)
        else:  # XOR / XNOR: a chain of 2-input XORs
            acc = fanins[0]
            for lit in fanins[1:]:
                fresh = cnf.new_var()
                cnf.add_clause([-fresh, acc, lit])
                cnf.add_clause([-fresh, -acc, -lit])
                cnf.add_clause([fresh, -acc, lit])
                cnf.add_clause([fresh, acc, -lit])
                acc = fresh
            if gate_type is GateType.XNOR:
                acc = -acc
            cnf.add_clause([-out, acc])
            cnf.add_clause([out, -acc])
    return encoding


def _cones(circuit: Circuit, targets: list[str]) -> Circuit:
    """The fanin cones of ``targets`` as one circuit with those outputs."""
    cones = Circuit(f"{circuit.name}~cones")
    for node in circuit.topological_order(targets=targets):
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            cones.add_input(node)
        elif gate_type in (GateType.CONST0, GateType.CONST1):
            cones.add_const(node, int(gate_type is GateType.CONST1))
        else:
            cones.add_gate(node, gate_type, circuit.fanins(node))
    for node in targets:
        cones.add_output(node)
    return cones


def _every_gate_kind(seed: int) -> Circuit:
    """A random circuit plus constants, buffers, inverters, wide and
    unary parities and repeated fanins, each extra node an output."""
    rng = random.Random(seed)
    circuit = generate_random_circuit(
        f"w{seed}", rng.randint(4, 9), rng.randint(1, 3), rng.randint(20, 60),
        seed=seed,
    )
    nodes = list(circuit.nodes)
    circuit.add_const("zero", 0)
    circuit.add_const("one", 1)
    extras = [
        ("buf", GateType.BUF, [rng.choice(nodes)]),
        ("inv", GateType.NOT, ["buf"]),
        ("xor1", GateType.XOR, [rng.choice(nodes)]),
        ("xor3", GateType.XOR, rng.sample(nodes, 3)),
        ("xnor4", GateType.XNOR, [*rng.sample(nodes, 3), "one"]),
        ("twice", GateType.AND, [nodes[-1], nodes[-1], "inv"]),
        ("nand", GateType.NAND, ["zero", "xor3", "xnor4"]),
        ("nor", GateType.NOR, ["twice", rng.choice(nodes)]),
        ("or", GateType.OR, ["xor1", "nand", "nor"]),
    ]
    for name, gate_type, fanins in extras:
        circuit.add_gate(name, gate_type, fanins)
        circuit.add_output(name)
    return circuit


class TestMatchesGateWalk:
    """Differential: the direct walk against the checked node-by-node
    walk, on CNFs that grow over repeated calls."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_targets_and_shared_nodes(self, seed):
        rng = random.Random(seed)
        circuit = _every_gate_kind(seed)
        new_cnf, ref_cnf = Cnf(5), Cnf(5)
        for step in range(6):
            target = (
                circuit if step % 3 == 0
                else _cones(
                    circuit, rng.sample(list(circuit.nodes), rng.randint(1, 4))
                )
            )
            # Shared inputs and, now and then, shared gates.
            shared = {
                name: rng.randint(1, new_cnf.num_vars) * rng.choice((1, -1))
                for name in circuit.nodes
                if rng.random() < (0.5 if name in circuit.inputs else 0.1)
            }
            new = encode_circuit(target, new_cnf, shared)
            ref = reference_encode_circuit(target, ref_cnf, shared)
            assert new_cnf.num_vars == ref_cnf.num_vars
            assert new_cnf.clauses == ref_cnf.clauses
            assert list(new.var_of.items()) == list(ref.var_of.items())

    @pytest.mark.parametrize("lit", [0, 3, -3, True, 1.0, "1"])
    def test_shared_variable_must_belong_to_the_cnf(self, lit):
        circuit = paper_example_circuit()
        cnf = Cnf(2)
        with pytest.raises(EncodingError):
            encode_circuit(circuit, cnf, shared_vars={"a": 1, "b": lit})
        assert (cnf.num_vars, cnf.clauses) == (2, [])


class TestEquivalence:
    def test_identical_circuits(self):
        assert check_equivalence(c17(), c17().copy()).proved

    def test_demorgan(self):
        left = Circuit("nand")
        left.add_input("a")
        left.add_input("b")
        left.add_gate("y", GateType.NAND, ["a", "b"])
        left.add_output("y")
        right = Circuit("or-of-nots")
        right.add_input("a")
        right.add_input("b")
        right.add_gate("na", GateType.NOT, ["a"])
        right.add_gate("nb", GateType.NOT, ["b"])
        right.add_gate("y", GateType.OR, ["na", "nb"])
        right.add_output("y")
        assert check_equivalence(left, right).proved

    def test_inequivalent_with_counterexample(self):
        left = Circuit("and")
        left.add_input("a")
        left.add_input("b")
        left.add_gate("y", GateType.AND, ["a", "b"])
        left.add_output("y")
        right = Circuit("or")
        right.add_input("a")
        right.add_input("b")
        right.add_gate("y", GateType.OR, ["a", "b"])
        right.add_output("y")
        result = check_equivalence(left, right)
        assert result.refuted
        cex = result.counterexample
        assert (cex["a"] & cex["b"]) != (cex["a"] | cex["b"])

    def test_fixed_inputs(self):
        # XOR with key fixed to 0 equals BUF; fixed to 1 equals NOT.
        locked = Circuit("locked")
        locked.add_input("a")
        locked.add_input("k", key=True)
        locked.add_gate("y", GateType.XOR, ["a", "k"])
        locked.add_output("y")
        plain = Circuit("plain")
        plain.add_input("a")
        plain.add_gate("y", GateType.BUF, ["a"])
        plain.add_output("y")
        locked = LockedCircuit(circuit=locked, scheme="xor", key_names=("k",))
        assert check_equivalence(locked.unlocked_with((0,)), plain).proved
        assert check_equivalence(locked.unlocked_with((1,)), plain).refuted

    def test_input_mismatch_rejected(self):
        left = paper_example_circuit()
        right = c17()
        with pytest.raises(CircuitError):
            check_equivalence(left, right)

    def test_output_count_mismatch_rejected(self):
        left = c17()
        right = c17().copy()
        right._outputs = ["G22"]  # simulate a single-output variant
        with pytest.raises(CircuitError):
            check_equivalence(left, right)

    def test_budget_exhaustion_returns_unknown(self):
        a = generate_random_circuit("a", 16, 2, 300, seed=5)
        b = generate_random_circuit("b", 16, 2, 300, seed=6)
        b = b.copy(name="a")
        result = check_equivalence(a, b, budget=Budget(0.0))
        assert result.equivalent is None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_equivalence_of_simulated_twins(seed):
    """Random circuit is equivalent to itself and (almost surely) not to
    a differently seeded twin with identical interface."""
    a = generate_random_circuit("twin", 6, 2, 30, seed=seed)
    assert check_equivalence(a, a.copy()).proved
