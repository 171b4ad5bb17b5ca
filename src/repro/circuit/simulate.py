"""Bit-parallel circuit simulation.

Values are Python ints used as packed bit-vectors: bit ``j`` of a node's
value is its output under input pattern ``j``. One pass over the netlist
therefore simulates arbitrarily many patterns at once (Python's bignum
``&``/``|``/``^`` do the wide ops).

:func:`simulate` and :func:`truth_table` are views over the compiled
engine's one evaluation path,
:meth:`~repro.circuit.compiled.CompiledCircuit.node_values`: packed
input words and a width in, packed node values out. Attack code calls
that path through the ``sweep_*`` functions of
:mod:`repro.circuit.sharding`, or holds the engine directly::

    from repro.circuit.compiled import compile_circuit
    engine = compile_circuit(circuit)
    engine.node_values(nodes, values, width)     # exactly these nodes
    engine.eval_outputs_sliced(values, width)    # the outputs

:func:`simulate_interpreted` keeps the original tree-walking
interpreter; it is the differential-testing reference for the compiled
engine and the baseline for ``benchmarks/bench_simulate.py``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import canonical_input_words, compile_circuit
from repro.circuit.gates import GateType, evaluate_gate
from repro.circuit.sharding import sweep_node_values, sweep_truth_table
from repro.errors import CircuitError


def simulate(
    circuit: Circuit, input_values: Mapping[str, int], width: int = 1
) -> dict[str, int]:
    """Packed values of every node for ``width`` patterns at once.

    ``input_values`` maps every input to a packed int (bit ``j`` = value
    in pattern ``j``).
    """
    nodes = circuit.topological_order()
    words = compile_circuit(circuit).node_values(nodes, input_values, width)
    return dict(zip(nodes, words))


def simulate_interpreted(
    circuit: Circuit,
    input_values: Mapping[str, int],
    width: int = 1,
    targets: Sequence[str] | None = None,
) -> dict[str, int]:
    """Reference interpreter (the pre-compilation implementation).

    Kept for differential testing against :class:`CompiledCircuit` and
    as the benchmark baseline; attack code should use :func:`simulate`.
    """
    if width < 1:
        raise CircuitError(f"width must be >= 1, got {width}")
    mask = (1 << width) - 1
    values: dict[str, int] = {}
    order = circuit.topological_order(
        targets=list(targets) if targets is not None else None
    )
    for node in order:
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            if node not in input_values:
                raise CircuitError(f"no value provided for input {node!r}")
            values[node] = input_values[node] & mask
        elif gate_type.is_constant:
            values[node] = evaluate_gate(gate_type, [], mask)
        else:
            fanin_values = [values[f] for f in circuit.fanins(node)]
            values[node] = evaluate_gate(gate_type, fanin_values, mask)
    return values


def require_binary_inputs(
    assignment: Mapping[str, int], names: Sequence[str] | None = None
) -> None:
    """Raise :class:`CircuitError` unless the assigned values are 0/1.

    Checks every entry of ``assignment``, or just ``names`` when given.
    """
    items = (
        assignment.items()
        if names is None
        else ((name, assignment[name]) for name in names)
    )
    for name, value in items:
        if value not in (0, 1):
            raise CircuitError(f"input {name!r} must be 0 or 1, got {value!r}")


def simulate_pattern(
    circuit: Circuit, assignment: Mapping[str, int]
) -> dict[str, int]:
    """Single-pattern simulation with 0/1 input values."""
    require_binary_inputs(assignment)
    return simulate(circuit, assignment, width=1)


def exhaustive_input_values(
    input_names: Sequence[str],
) -> tuple[dict[str, int], int]:
    """Packed inputs enumerating all 2^n patterns.

    Input ``i`` gets the canonical pattern whose bit ``j`` is bit ``i`` of
    ``j`` — the classic trick making one wide simulation equal an
    exhaustive truth-table sweep. Returns ``(values, width)``. The
    canonical words are memoized by input count (they do not depend on
    the names), so repeated cone sweeps reuse the same bignums.
    """
    n = len(input_names)
    words = canonical_input_words(n)  # raises past the 24-input limit
    return dict(zip(input_names, words)), 1 << n


def truth_table(circuit: Circuit, node: str | None = None) -> int:
    """Exhaustive truth table of ``node`` (default: the single output).

    Bit ``j`` of the result is the node's value when input ``i`` (in
    ``circuit.inputs`` order) is bit ``i`` of ``j``. When the circuit has
    more than 24 inputs the enumeration falls back to the node's support
    cone — bit ``i`` of ``j`` then indexes the cone's inputs (in
    ``circuit.inputs`` order; see :func:`~repro.circuit.sharding.
    sweep_truth_table`) — so the
    24-input feasibility limit applies to the cone, not the circuit.
    """
    if node is None:
        if len(circuit.outputs) != 1:
            raise CircuitError("truth_table needs an explicit node "
                               "for multi-output circuits")
        node = circuit.outputs[0]
    all_inputs = circuit.inputs
    if len(all_inputs) <= 24:
        values, width = exhaustive_input_values(all_inputs)
        (table,) = sweep_node_values(circuit, (node,), values, width)
        return table
    table, _ = sweep_truth_table(circuit, node)
    return table
