"""Tseitin encoding of circuits into CNF.

Each circuit node gets a CNF variable; gate semantics become clauses.
Multiple circuit instances can share one :class:`~repro.sat.cnf.Cnf`
(and selected variables) — this is how the SAT attack builds its
``C(X, K1, Y1) ∧ C(X, K2, Y2)`` double instantiation with shared inputs,
and how the FALL analyses instantiate a candidate cone twice for the
``HD(Supp(c), Supp(c')) = 2h`` queries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.circuit.gates import GateType
from repro.errors import EncodingError
from repro.sat.cnf import Cnf


@dataclass
class CircuitEncoding:
    """The result of encoding one circuit instance into a CNF."""

    cnf: Cnf
    var_of: dict[str, int] = field(default_factory=dict)

    def lit(self, node: str) -> int:
        """The literal asserting ``node`` is 1."""
        if node not in self.var_of:
            raise EncodingError(f"node {node!r} was not encoded")
        return self.var_of[node]

    def lits(self, nodes: Sequence[str]) -> list[int]:
        return [self.lit(n) for n in nodes]

    def output_lits(self, circuit: Circuit) -> list[int]:
        return self.lits(list(circuit.outputs))


def encode_circuit(
    circuit: Circuit,
    cnf: Cnf,
    shared_vars: Mapping[str, int] | None = None,
) -> CircuitEncoding:
    """Encode the fanin cones of a circuit's outputs into CNF.

    ``shared_vars`` pre-assigns CNF variables to nodes (typically inputs)
    so several instances can share them; each must already be a literal
    of ``cnf``.
    """
    targets = list(circuit.outputs)
    if not targets:
        raise EncodingError("circuit has no outputs")
    encoding = CircuitEncoding(cnf=cnf)
    var_of = encoding.var_of
    top = cnf.num_vars
    if shared_vars:
        for name, lit in shared_vars.items():
            _check_shared(name, lit, top)
        var_of.update(shared_vars)

    # One walk over the cone, reading the netlist's tables directly and
    # appending clauses without Cnf.add_clause's per-literal check: every
    # literal is a shared one checked above or a variable allocated here.
    gate_types = circuit._type
    fanins_of = circuit._fanins
    clauses = cnf.clauses
    append = clauses.append
    for node in circuit.topological_order(targets=targets):
        if node in var_of:
            continue  # shared variable supplied by the caller
        top += 1
        out = var_of[node] = top
        gate_type = gate_types[node]
        if gate_type is GateType.INPUT:
            continue  # free variable
        lits = [var_of[f] for f in fanins_of[node]]
        if gate_type is GateType.AND:
            for lit in lits:
                append((-out, lit))
            append((out, *[-lit for lit in lits]))
        elif gate_type is GateType.NAND:
            for lit in lits:
                append((out, lit))
            append((-out, *[-lit for lit in lits]))
        elif gate_type is GateType.OR:
            for lit in lits:
                append((out, -lit))
            append((-out, *lits))
        elif gate_type is GateType.NOR:
            for lit in lits:
                append((-out, -lit))
            append((out, *lits))
        elif gate_type is GateType.CONST0:
            append((-out,))
        elif gate_type is GateType.CONST1:
            append((out,))
        else:
            # BUF, NOT, XOR, XNOR: a chain of 2-input XORs folds the
            # fanins into one literal, which the output equals (or
            # negates).
            acc = lits[0]
            for lit in lits[1:]:
                top += 1
                _xor2(clauses, top, acc, lit)
                acc = top
            if gate_type is GateType.NOT or gate_type is GateType.XNOR:
                acc = -acc
            append((-out, acc))
            append((out, -acc))
    cnf.num_vars = top
    return encoding


def _check_shared(name: str, lit: int, num_vars: int) -> None:
    """Raise unless ``lit`` is a literal over ``num_vars`` variables."""
    if isinstance(lit, bool) or not isinstance(lit, int) or not (
        0 < abs(lit) <= num_vars
    ):
        raise EncodingError(
            f"shared variable {lit!r} of {name!r} is not a literal "
            f"of the cnf ({num_vars} variables)"
        )


@dataclass
class CofactorEncoding:
    """Encoding of a circuit specialized under a partial input assignment.

    Every node evaluates either to a constant (``consts``) or to a CNF
    literal (``lits``, signed int — negation is free). Used by the SAT
    attack and key confirmation: with the distinguishing input fixed,
    everything outside the key-dependent cone constant-folds away and
    each iteration adds only a few clauses.
    """

    cnf: Cnf
    consts: dict[str, int] = field(default_factory=dict)
    lits: dict[str, int] = field(default_factory=dict)

    def assert_node_equals(self, node: str, bit: int) -> None:
        """Constrain ``node`` to the given 0/1 value."""
        if node in self.consts:
            if self.consts[node] != bit:
                self.cnf.add_clause([])  # contradiction: mark UNSAT
            return
        lit = self.lits[node]
        self.cnf.add_clause([lit if bit else -lit])


def encode_under_assignment(
    circuit: Circuit,
    cnf: Cnf,
    fixed: Mapping[str, int],
    shared_vars: Mapping[str, int] | None = None,
) -> CofactorEncoding:
    """Encode the output cones of a circuit with some inputs pinned.

    ``fixed`` pins inputs to 0/1; ``shared_vars`` supplies variables of
    ``cnf`` for other inputs (typically the key inputs); remaining inputs
    get fresh variables. Constants are propagated through the netlist so
    only genuinely symbolic logic produces clauses.

    The result is that of a walk over the cone in topological order that
    allocates a fresh variable whenever one is needed. The fold depends
    only on which cone inputs are fixed (and to what), shared or fresh,
    so it runs once per such pattern into a template over literal slots;
    calls that repeat the pattern (the SAT attack's key instances under
    one distinguishing input) only renumber the template onto ``cnf``.
    """
    shared_vars = shared_vars or {}
    program = circuit._memo("cofactor", lambda: _CofactorProgram(circuit))
    return program.template(fixed, shared_vars).instantiate(cnf, shared_vars)


_SHARED = "shared"
_FRESH = "fresh"
_FIXED = "fixed"


class _CofactorProgram:
    """The cone of the outputs in topological order, split per input
    shape (which inputs are fixed, shared or fresh) into its static
    nodes, whose fanin cone holds only fixed inputs and constants, and
    the dynamic rest."""

    __slots__ = ("nodes", "inputs", "compiled", "_splits", "_last")

    def __init__(self, circuit: Circuit):
        self.nodes = [
            (node, circuit.gate_type(node), circuit.fanins(node))
            for node in circuit.topological_order(targets=list(circuit.outputs))
        ]
        self.inputs = [
            node for node, gate_type, _ in self.nodes
            if gate_type is GateType.INPUT
        ]
        self.compiled = compile_circuit(circuit)
        self._splits: dict[tuple, _Split] = {}
        self._last: tuple[tuple, _CofactorTemplate] | None = None

    def template(
        self, fixed: Mapping[str, int], shared_vars: Mapping[str, int]
    ) -> "_CofactorTemplate":
        """The fold for this input pattern (the last one is kept)."""
        pattern = tuple([
            int(fixed[name]) if name in fixed
            else _SHARED if name in shared_vars
            else _FRESH
            for name in self.inputs
        ])
        last = self._last
        if last is not None and last[0] == pattern:
            return last[1]
        shape = tuple([
            _FIXED if type(state) is int else state for state in pattern
        ])
        split = self._splits.get(shape)
        if split is None:
            split = self._splits[shape] = _Split(self, shape)
        template = _CofactorTemplate(self, split, fixed)
        self._last = (pattern, template)
        return template


class _Split:
    """The static and dynamic nodes of the cone under one input shape.

    A dynamic input is listed with its state (``_SHARED`` or
    ``_FRESH``) in place of its gate type.
    """

    __slots__ = ("static", "dynamic", "shared_names")

    def __init__(self, program: _CofactorProgram, shape: tuple):
        states = dict(zip(program.inputs, shape))
        self.static: list[str] = []
        self.dynamic: list[tuple] = []
        dynamic: set[str] = set()
        for node, gate_type, fanins in program.nodes:
            if gate_type is GateType.INPUT and states[node] is not _FIXED:
                dynamic.add(node)
                self.dynamic.append((node, states[node], fanins))
            elif not dynamic.isdisjoint(fanins):
                dynamic.add(node)
                self.dynamic.append((node, gate_type, fanins))
            else:
                self.static.append(node)
        self.shared_names = [
            name for name, state in zip(program.inputs, shape)
            if state is _SHARED
        ]


class _CofactorTemplate:
    """The folded cone over literal slots.

    Slots ``1..len(shared_names)`` stand for the shared inputs in
    topological order, the following ``num_fresh`` slots for the fresh
    variables in allocation order; a negative slot is a negated literal.

    The static nodes take their values from one compiled simulation of
    the fixed inputs; only the dynamic nodes are folded, in topological
    order. ``consts`` and ``lits`` are those of the plain walk over the
    whole cone, entries in topological order.
    """

    __slots__ = ("shared_names", "num_fresh", "clauses", "consts",
                 "lit_names", "lit_slots")

    def __init__(
        self,
        program: _CofactorProgram,
        split: _Split,
        fixed: Mapping[str, int],
    ):
        self.shared_names = split.shared_names
        slots = Cnf(len(self.shared_names))
        consts: dict[str, int] = {}
        if split.static:
            consts.update(zip(split.static, program.compiled.node_values(
                split.static, fixed, width=1
            )))
        lits: dict[str, int] = {}
        next_shared = 0
        for node, gate_type, fanins in split.dynamic:
            if gate_type is _SHARED:
                next_shared += 1
                lits[node] = next_shared
                continue
            if gate_type is _FRESH:
                lits[node] = slots.new_var()
                continue
            fanin_consts: list[int] = []
            fanin_lits: list[int] = []
            for fanin in fanins:
                if fanin in consts:
                    fanin_consts.append(consts[fanin])
                else:
                    fanin_lits.append(lits[fanin])
            value = _fold_gate(slots, gate_type, fanin_consts, fanin_lits)
            if isinstance(value, bool):
                consts[node] = int(value)
            else:
                lits[node] = value
        if len(consts) > len(split.static):
            # Some dynamic nodes folded to constants: back into order.
            consts = {
                node: consts[node] for node, _, _ in program.nodes
                if node in consts
            }
        self.num_fresh = slots.num_vars - len(self.shared_names)
        self.clauses = slots.clauses
        self.consts = consts
        self.lit_names = list(lits)
        self.lit_slots = list(lits.values())

    def instantiate(
        self, cnf: Cnf, shared_vars: Mapping[str, int]
    ) -> CofactorEncoding:
        """Append the clauses to ``cnf``, fresh variables numbered next."""
        base = cnf.num_vars
        table = [0]
        for name in self.shared_names:
            lit = shared_vars[name]
            _check_shared(name, lit, base)
            table.append(lit)
        table.extend(range(base + 1, base + 1 + self.num_fresh))
        # lut[s] is the literal of slot s, and lut[-s] its negation.
        lut = table + [-lit for lit in reversed(table[1:])]
        substitute = lut.__getitem__
        cnf.clauses.extend(
            [tuple(map(substitute, clause)) for clause in self.clauses]
        )
        cnf.num_vars = base + self.num_fresh
        return CofactorEncoding(
            cnf=cnf,
            consts=dict(self.consts),
            lits=dict(zip(self.lit_names, map(substitute, self.lit_slots))),
        )


def _fold_gate(
    cnf: Cnf,
    gate_type: GateType,
    fanin_consts: list[int],
    fanin_lits: list[int],
) -> bool | int:
    """Partial-evaluate one gate; returns a bool (constant) or a literal."""
    if gate_type is GateType.BUF:
        return bool(fanin_consts[0]) if fanin_consts else fanin_lits[0]
    if gate_type is GateType.NOT:
        return (not fanin_consts[0]) if fanin_consts else -fanin_lits[0]
    if gate_type in (GateType.AND, GateType.NAND):
        invert = gate_type is GateType.NAND
        if 0 in fanin_consts:
            return invert
        value = _fold_and(cnf, fanin_lits)
        return _negate(value) if invert else value
    if gate_type in (GateType.OR, GateType.NOR):
        invert = gate_type is GateType.NOR
        if 1 in fanin_consts:
            return not invert
        value = _fold_or(cnf, fanin_lits)
        return _negate(value) if invert else value
    # XOR / XNOR
    parity = sum(fanin_consts) % 2
    if gate_type is GateType.XNOR:
        parity ^= 1
    if not fanin_lits:
        return bool(parity)
    acc = fanin_lits[0]
    for lit in fanin_lits[1:]:
        fresh = cnf.new_var()
        _xor2(cnf.clauses, fresh, acc, lit)
        acc = fresh
    return -acc if parity else acc


def _fold_and(cnf: Cnf, lits: list[int]) -> bool | int:
    if not lits:
        return True
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([-out, lit])
    cnf.add_clause([out] + [-lit for lit in lits])
    return out


def _fold_or(cnf: Cnf, lits: list[int]) -> bool | int:
    if not lits:
        return False
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([out, -lit])
    cnf.add_clause([-out] + list(lits))
    return out


def _negate(value: bool | int) -> bool | int:
    if isinstance(value, bool):
        return not value
    return -value


def _xor2(clauses: list, out: int, a: int, b: int) -> None:
    """``out = a XOR b``; the caller has allocated ``out``."""
    clauses.extend(
        ((-out, a, b), (-out, -a, -b), (out, -a, b), (out, a, -b))
    )
