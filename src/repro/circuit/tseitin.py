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
from repro.circuit.gates import GateType
from repro.errors import EncodingError
from repro.sat.cnf import Cnf


@dataclass
class CircuitEncoding:
    """The result of encoding one circuit instance into a CNF."""

    cnf: Cnf
    var_of: dict[str, int] = field(default_factory=dict)

    def lit(self, node: str, positive: bool = True) -> int:
        """The literal asserting ``node`` is 1 (or 0 if not positive)."""
        if node not in self.var_of:
            raise EncodingError(f"node {node!r} was not encoded")
        var = self.var_of[node]
        return var if positive else -var

    def lits(self, nodes: Sequence[str]) -> list[int]:
        return [self.lit(n) for n in nodes]

    def output_lits(self, circuit: Circuit) -> list[int]:
        return self.lits(list(circuit.outputs))


def encode_circuit(
    circuit: Circuit,
    cnf: Cnf | None = None,
    shared_vars: Mapping[str, int] | None = None,
    targets: Sequence[str] | None = None,
) -> CircuitEncoding:
    """Encode (the target cones of) a circuit into CNF.

    ``shared_vars`` pre-assigns CNF variables to nodes (typically inputs)
    so several instances can share them. ``targets`` restricts encoding to
    the fanin cones of the given nodes (default: the declared outputs).
    """
    if cnf is None:
        cnf = Cnf()
    if targets is None:
        targets = list(circuit.outputs)
        if not targets:
            raise EncodingError("circuit has no outputs and no targets given")
    encoding = CircuitEncoding(cnf=cnf)
    var_of = encoding.var_of
    if shared_vars:
        var_of.update(shared_vars)

    for node in circuit.topological_order(targets=list(targets)):
        if node in var_of:
            continue  # shared variable supplied by the caller
        gate_type = circuit.gate_type(node)
        var = cnf.new_var()
        var_of[node] = var
        if gate_type is GateType.INPUT:
            continue  # free variable
        if gate_type is GateType.CONST0:
            cnf.add_clause([-var])
            continue
        if gate_type is GateType.CONST1:
            cnf.add_clause([var])
            continue
        fanin_lits = [var_of[f] for f in circuit.fanins(node)]
        _encode_gate(cnf, gate_type, var, fanin_lits)
    return encoding


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
    targets: Sequence[str] | None = None,
) -> CofactorEncoding:
    """Encode a circuit with some inputs pinned to constants.

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
    if targets is None:
        targets = circuit.outputs
    targets = tuple(targets)
    shared_vars = shared_vars or {}
    program = circuit._memo(
        ("cofactor", targets), lambda: _CofactorProgram(circuit, targets)
    )
    return program.template(fixed, shared_vars).instantiate(cnf, shared_vars)


_SHARED = "shared"
_FRESH = "fresh"


class _CofactorProgram:
    """The cone of ``targets`` in topological order."""

    __slots__ = ("nodes", "inputs", "_last")

    def __init__(self, circuit: Circuit, targets: tuple[str, ...]):
        self.nodes = [
            (node, circuit.gate_type(node), circuit.fanins(node))
            for node in circuit.topological_order(targets=list(targets))
        ]
        self.inputs = [
            node for node, gate_type, _ in self.nodes
            if gate_type is GateType.INPUT
        ]
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
        template = _CofactorTemplate(self, pattern)
        self._last = (pattern, template)
        return template


class _CofactorTemplate:
    """The folded cone over literal slots.

    Slots ``1..len(shared_names)`` stand for the shared inputs in
    topological order, the following ``num_fresh`` slots for the fresh
    variables in allocation order; a negative slot is a negated literal.
    """

    __slots__ = ("shared_names", "num_fresh", "clauses", "consts",
                 "lit_names", "lit_slots")

    def __init__(self, program: _CofactorProgram, pattern: tuple):
        self.shared_names = [
            name for name, state in zip(program.inputs, pattern)
            if state is _SHARED
        ]
        slots = Cnf(len(self.shared_names))
        consts: dict[str, int] = {}
        lits: dict[str, int] = {}
        states = iter(pattern)
        next_shared = 0
        for node, gate_type, fanins in program.nodes:
            if gate_type is GateType.INPUT:
                state = next(states)
                if state is _SHARED:
                    next_shared += 1
                    lits[node] = next_shared
                elif state is _FRESH:
                    lits[node] = slots.new_var()
                else:
                    consts[node] = state
                continue
            if gate_type is GateType.CONST0:
                consts[node] = 0
                continue
            if gate_type is GateType.CONST1:
                consts[node] = 1
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
            if isinstance(lit, bool) or not isinstance(lit, int) or not (
                0 < abs(lit) <= base
            ):
                raise EncodingError(
                    f"shared variable {lit!r} of {name!r} is not a literal "
                    f"of the cnf ({base} variables)"
                )
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
        _xor2(cnf, fresh, acc, lit)
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


def _encode_gate(cnf: Cnf, gate_type: GateType, out: int, fanins: list[int]) -> None:
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
        cnf.add_clause([-out] + list(fanins))
    elif gate_type is GateType.NOR:
        for lit in fanins:
            cnf.add_clause([-out, -lit])
        cnf.add_clause([out] + list(fanins))
    elif gate_type in (GateType.XOR, GateType.XNOR):
        _encode_parity(cnf, gate_type, out, fanins)
    else:  # pragma: no cover - exhaustive over gate kinds
        raise EncodingError(f"cannot encode gate type {gate_type.value}")


def _encode_parity(
    cnf: Cnf, gate_type: GateType, out: int, fanins: list[int]
) -> None:
    """XOR/XNOR via a linear chain of 2-input XOR constraints."""
    acc = fanins[0]
    for lit in fanins[1:]:
        fresh = cnf.new_var()
        _xor2(cnf, fresh, acc, lit)
        acc = fresh
    if gate_type is GateType.XOR:
        cnf.add_clause([-out, acc])
        cnf.add_clause([out, -acc])
    else:
        cnf.add_clause([-out, -acc])
        cnf.add_clause([out, acc])


def _xor2(cnf: Cnf, out: int, a: int, b: int) -> None:
    cnf.add_clause([-out, a, b])
    cnf.add_clause([-out, -a, -b])
    cnf.add_clause([out, -a, b])
    cnf.add_clause([out, a, -b])
