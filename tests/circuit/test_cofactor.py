"""Tests for the partial-evaluation (cofactor) CNF encoder.

``encode_under_assignment`` powers every oracle-guided attack loop: the
distinguishing input is fixed, everything outside the key cone folds to
constants, and only the key-dependent logic produces clauses. Its
correctness contract: for every key assignment, the constrained CNF is
satisfiable iff the full circuit produces the asserted outputs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_pattern
from repro.circuit.tseitin import (
    CofactorEncoding,
    _fold_gate,
    encode_under_assignment,
)
from repro.errors import EncodingError
from repro.locking import lock_sfll_hd
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from tests.circuits import c17


def check_against_simulation(circuit: Circuit, pattern: int) -> None:
    """Fix all inputs; encoded outputs must constant-fold to sim values."""
    inputs = circuit.inputs
    assignment = {name: (pattern >> i) & 1 for i, name in enumerate(inputs)}
    expected = simulate_pattern(circuit, assignment)
    cnf = Cnf()
    encoding = encode_under_assignment(circuit, cnf, fixed=assignment)
    for out in circuit.outputs:
        assert out in encoding.consts, f"{out} did not constant-fold"
        assert encoding.consts[out] == expected[out]


class TestFullyFixed:
    @pytest.mark.parametrize("pattern", [0, 0b0110, 0b1111, 0b1001])
    def test_paper_example_folds_to_constants(self, pattern):
        check_against_simulation(paper_example_circuit(), pattern)

    @pytest.mark.parametrize("pattern", range(0, 32, 7))
    def test_c17_folds_to_constants(self, pattern):
        check_against_simulation(c17(), pattern)

    def test_no_clauses_emitted_when_fully_fixed(self):
        circuit = paper_example_circuit()
        cnf = Cnf()
        encode_under_assignment(
            circuit, cnf, fixed={"a": 1, "b": 0, "c": 0, "d": 1}
        )
        assert len(cnf.clauses) == 0


class TestPartiallyFixed:
    def test_key_cone_stays_symbolic(self):
        locked = lock_sfll_hd(
            paper_example_circuit(), h=1, cube=(1, 0, 0, 1)
        )
        cnf = Cnf()
        key_vars = {name: cnf.new_var() for name in locked.key_names}
        pattern = {"a": 1, "b": 1, "c": 0, "d": 0}
        encoding = encode_under_assignment(
            locked.circuit, cnf, fixed=pattern, shared_vars=key_vars
        )
        out = locked.circuit.outputs[0]
        # The locked output depends on the keys: must be a literal.
        assert out in encoding.lits
        # And the CNF agrees with simulation for every key value.
        solver = Solver()
        solver.add_cnf(cnf)
        for key_value in range(16):
            key_bits = [(key_value >> i) & 1 for i in range(4)]
            assignment = dict(pattern)
            assignment.update(zip(locked.key_names, key_bits))
            expected = simulate_pattern(locked.circuit, assignment)[out]
            assumptions = [
                var if bit else -var
                for var, bit in zip(key_vars.values(), key_bits)
            ]
            lit = encoding.lits[out]
            assumptions.append(lit if expected else -lit)
            assert solver.solve(assumptions=assumptions) is SolveStatus.SAT
            assumptions[-1] = -assumptions[-1]
            assert solver.solve(assumptions=assumptions) is SolveStatus.UNSAT

    def test_assert_node_equals_constant_conflict(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1})
        encoding.assert_node_equals("y", 0)  # contradicts the constant
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.UNSAT

    def test_assert_node_equals_literal(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_input("k", key=True)
        circuit.add_gate("y", GateType.XOR, ["a", "k"])
        circuit.add_output("y")
        cnf = Cnf()
        k_var = cnf.new_var()
        encoding = encode_under_assignment(
            circuit, cnf, fixed={"a": 1}, shared_vars={"k": k_var}
        )
        encoding.assert_node_equals("y", 1)  # 1 XOR k = 1 => k = 0
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.SAT
        assert solver.model_value(k_var) is False

    def test_free_inputs_get_fresh_vars(self):
        circuit = paper_example_circuit()
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 0})
        assert "b" in encoding.lits
        assert "a" in encoding.consts


class TestGateFolding:
    @pytest.mark.parametrize(
        "gate_type,const_in,expect_const",
        [
            (GateType.AND, 0, 0),
            (GateType.NAND, 0, 1),
            (GateType.OR, 1, 1),
            (GateType.NOR, 1, 0),
        ],
    )
    def test_dominant_constants(self, gate_type, const_in, expect_const):
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", gate_type, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": const_in})
        assert encoding.consts["y"] == expect_const
        assert len(cnf.clauses) == 0

    @pytest.mark.parametrize(
        "gate_type",
        [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR],
    )
    def test_neutral_constants_pass_through(self, gate_type):
        neutral = 1 if gate_type in (GateType.AND, GateType.NAND) else 0
        inverting = gate_type in (GateType.NAND, GateType.NOR)
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", gate_type, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": neutral})
        lit = encoding.lits["y"]
        b_lit = encoding.lits["b"]
        assert abs(lit) == abs(b_lit)
        assert (lit == -b_lit) == inverting

    def test_xor_parity_folding(self):
        circuit = Circuit("g")
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        circuit.add_gate("y", GateType.XOR, ["a", "b", "c"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1, "b": 1})
        # 1 XOR 1 XOR c = c
        assert encoding.lits["y"] == encoding.lits["c"]

    def test_xnor_with_all_constants(self):
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.XNOR, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1, "b": 1})
        assert encoding.consts["y"] == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    pattern=st.integers(min_value=0, max_value=255),
)
def test_cofactor_matches_simulation_property(seed, pattern):
    """Fully fixed cofactor encoding must equal simulation everywhere."""
    circuit = generate_random_circuit("cf", 8, 3, 50, seed=seed)
    check_against_simulation(circuit, pattern)


def reference_encode_under_assignment(
    circuit, cnf, fixed, shared_vars=None
) -> CofactorEncoding:
    """The plain node-by-node walk the templated encoder must reproduce."""
    encoding = CofactorEncoding(cnf=cnf)
    consts = encoding.consts
    lits = encoding.lits
    shared_vars = shared_vars or {}
    for node in circuit.topological_order(targets=list(circuit.outputs)):
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            if node in fixed:
                consts[node] = int(fixed[node])
            elif node in shared_vars:
                lits[node] = shared_vars[node]
            else:
                lits[node] = cnf.new_var()
            continue
        if gate_type is GateType.CONST0:
            consts[node] = 0
            continue
        if gate_type is GateType.CONST1:
            consts[node] = 1
            continue
        fanin_consts = []
        fanin_lits = []
        for fanin in circuit.fanins(node):
            if fanin in consts:
                fanin_consts.append(consts[fanin])
            else:
                fanin_lits.append(lits[fanin])
        value = _fold_gate(cnf, gate_type, fanin_consts, fanin_lits)
        if isinstance(value, bool):
            consts[node] = int(value)
        else:
            lits[node] = value
    return encoding


def _decorated_circuit(seed: int) -> Circuit:
    """A random circuit plus the node kinds the generator never emits:
    constants, buffers, wide parities and repeated fanins."""
    rng = random.Random(seed)
    circuit = generate_random_circuit(
        f"d{seed}", rng.randint(4, 9), rng.randint(1, 3), rng.randint(20, 60),
        seed=seed,
    )
    nodes = list(circuit.nodes)
    circuit.add_const("zero", 0)
    circuit.add_const("one", 1)
    extras = [
        ("buf", GateType.BUF, [rng.choice(nodes)]),
        ("xor3", GateType.XOR, rng.sample(nodes, 3)),
        ("xnor3", GateType.XNOR, [rng.choice(nodes), "one", rng.choice(nodes)]),
        ("twice", GateType.AND, [nodes[-1], nodes[-1], rng.choice(nodes)]),
        ("masked", GateType.OR, ["zero", rng.choice(nodes)]),
        ("sink", GateType.NAND, ["buf", "xor3", "xnor3", "twice", "masked"]),
    ]
    for name, gate_type, fanins in extras:
        circuit.add_gate(name, gate_type, fanins)
    circuit.add_output("sink")
    return circuit


def _random_split(rng, inputs):
    fixed = {}
    shared_names = []
    for name in inputs:
        draw = rng.random()
        if draw < 0.45:
            fixed[name] = rng.randint(0, 1)
        elif draw < 0.8:
            shared_names.append(name)
    return fixed, shared_names


def _assert_same(new, ref):
    assert new.cnf.num_vars == ref.cnf.num_vars
    assert new.cnf.clauses == ref.cnf.clauses
    # Same entries in the same (topological) order.
    assert list(new.consts.items()) == list(ref.consts.items())
    assert list(new.lits.items()) == list(ref.lits.items())


class TestMatchesNodeWalk:
    """Differential: the fold-once encoder against the plain walk.

    Both sides append to their own growing CNF, so fresh variables are
    numbered after everything earlier calls allocated.
    """

    @pytest.mark.parametrize("seed", range(16))
    def test_random_splits_and_repeated_assignments(self, seed):
        rng = random.Random(seed)
        circuit = _decorated_circuit(seed)
        new_cnf, ref_cnf = Cnf(6), Cnf(6)
        for step in range(8):
            if step % 3 == 0:
                # A new assignment; the next two calls repeat it with
                # other shared variables, as the attack loops do.
                fixed, shared_names = _random_split(rng, circuit.inputs)
            if step % 3 == 2:
                shared_names = rng.sample(
                    list(circuit.inputs), len(circuit.inputs) // 2
                )
            shared = {
                name: rng.randint(1, new_cnf.num_vars) * rng.choice((1, -1))
                for name in shared_names
            }
            new = encode_under_assignment(
                circuit, new_cnf, fixed=fixed, shared_vars=shared
            )
            ref = reference_encode_under_assignment(
                circuit, ref_cnf, fixed=fixed, shared_vars=shared
            )
            _assert_same(new, ref)

    def test_structural_mutation_between_calls(self):
        circuit = _decorated_circuit(99)
        fixed = {name: 1 for name in circuit.inputs[:2]}
        shared_names = circuit.inputs[2:4]
        new_cnf, ref_cnf = Cnf(4), Cnf(4)
        shared = {name: var for var, name in enumerate(shared_names, 1)}

        def both():
            new = encode_under_assignment(circuit, new_cnf, fixed, shared)
            _assert_same(
                new,
                reference_encode_under_assignment(
                    circuit, ref_cnf, fixed, shared
                ),
            )
            return new

        assert "late" not in both().lits
        # A new free input gating the first output: the memoized cone
        # and its template must be rebuilt.
        circuit.add_input("late")
        first = circuit.outputs[0]
        circuit.add_gate("late_gate", GateType.XOR, [first, "late"])
        circuit.replace_output(first, "late_gate")
        assert "late" in both().lits

    def test_same_names_different_structure(self):
        # Circuits built and dropped one after another reuse node names
        # (and often memory); each must get its own cone and template.
        for seed in range(6):
            circuit = generate_random_circuit("same", 6, 2, 30, seed=seed)
            fixed = {circuit.inputs[0]: 1}
            _assert_same(
                encode_under_assignment(circuit, Cnf(), fixed),
                reference_encode_under_assignment(circuit, Cnf(), fixed),
            )

    def test_shared_variable_must_belong_to_the_cnf(self):
        circuit = paper_example_circuit()
        with pytest.raises(EncodingError):
            encode_under_assignment(
                circuit, Cnf(2), fixed={"a": 1}, shared_vars={"b": 3}
            )
