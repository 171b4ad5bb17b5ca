"""Synthetic combinational benchmark generation.

The paper evaluates on ISCAS'85 and MCNC netlists, which are public but
not bundled with this repository. We substitute deterministic, seeded
random circuits matched to each benchmark's (#inputs, #outputs, #gates)
profile from Table I (see :mod:`repro.experiments.profiles`). FALL's
behaviour is driven by the locking parameters (key length m, Hamming
distance h) and by synthesis obscuring the locking logic, both of which
are preserved by this substitution.

Generation recipe: a layered DAG where (1) an initial merge layer
guarantees every input is used, (2) gates draw fanins with a recency
bias to produce realistic depth, and (3) surplus sink nodes are folded
together so the requested number of outputs covers all logic.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.errors import CircuitError
from repro.utils.rng import RngLike, make_rng

# Weighted gate menu: (type, arity); NOT is unary, others binary or ternary.
_GATE_MENU: list[tuple[GateType, int, float]] = [
    (GateType.AND, 2, 0.22),
    (GateType.NAND, 2, 0.20),
    (GateType.OR, 2, 0.16),
    (GateType.NOR, 2, 0.12),
    (GateType.XOR, 2, 0.10),
    (GateType.XNOR, 2, 0.05),
    (GateType.AND, 3, 0.05),
    (GateType.OR, 3, 0.05),
    (GateType.NOT, 1, 0.05),
]
_MENU_TOTAL = sum(w for _, _, w in _GATE_MENU)


def generate_random_circuit(
    name: str,
    num_inputs: int,
    num_outputs: int,
    num_gates: int,
    seed: RngLike = 0,
) -> Circuit:
    """A seeded random combinational circuit with roughly ``num_gates``.

    Guarantees: every input is in the support of some output; the first
    output has the widest support of all outputs (it is the designated
    locking target); no dangling gates. The exact gate count may exceed
    ``num_gates`` slightly (sink folding).
    """
    if num_inputs < 1 or num_outputs < 1:
        raise CircuitError("need at least one input and one output")
    if num_gates < num_inputs:
        raise CircuitError(
            f"num_gates={num_gates} too small to use {num_inputs} inputs"
        )
    rng = make_rng(seed)
    circuit = Circuit(name)
    inputs = [circuit.add_input(f"x{i}") for i in range(num_inputs)]

    pool: list[str] = []
    counter = 0

    def add(gate_type: GateType, fanins: list[str]) -> str:
        nonlocal counter
        counter += 1
        node = f"g{counter}"
        circuit.add_gate(node, gate_type, fanins)
        pool.append(node)
        return node

    # Merge layer: consume inputs pairwise so all are used.
    shuffled = list(inputs)
    rng.shuffle(shuffled)
    for i in range(0, num_inputs - 1, 2):
        gate_type = rng.choice(
            [GateType.AND, GateType.NAND, GateType.OR, GateType.XOR]
        )
        add(gate_type, [shuffled[i], shuffled[i + 1]])
    if num_inputs % 2:
        partner = pool[-1] if pool else shuffled[0]
        add(rng.choice([GateType.NAND, GateType.NOR]), [shuffled[-1], partner])

    candidates = list(inputs) + pool

    def pick_fanin() -> str:
        # Recency bias: exponential lookback over the candidate list.
        span = len(candidates)
        depth_scale = max(4.0, span / 6.0)
        back = int(rng.expovariate(1.0 / depth_scale))
        index = max(0, span - 1 - back)
        return candidates[index]

    while counter < num_gates:
        gate_type, arity = _pick_gate(rng)
        fanins: list[str] = []
        attempts = 0
        while len(fanins) < arity and attempts < 20:
            attempts += 1
            choice = pick_fanin()
            if choice not in fanins:
                fanins.append(choice)
        if len(fanins) < arity:
            fanins = candidates[-arity:]
        node = add(gate_type, fanins)
        candidates.append(node)

    # Outputs: start from the sink gates, folding surplus sinks together.
    fanouts = circuit.fanouts()
    sinks = [n for n in pool if not fanouts[n]]
    while len(sinks) > num_outputs:
        a = sinks.pop(rng.randrange(len(sinks)))
        b = sinks.pop(rng.randrange(len(sinks)))
        sinks.append(add(rng.choice([GateType.OR, GateType.NAND]), [a, b]))
    while len(sinks) < num_outputs:
        extra = rng.choice(pool)
        if extra not in sinks:
            sinks.append(extra)

    # Designate the widest-support sink as output 0 (the locking target).
    from repro.circuit.analysis import support

    sinks.sort(key=lambda n: (-len(support(circuit, n)), n))
    for index, sink in enumerate(sinks):
        output_name = f"y{index}"
        circuit.add_gate(output_name, GateType.BUF, [sink])
        circuit.add_output(output_name)
    circuit.validate()
    return circuit


def _pick_gate(rng) -> tuple[GateType, int]:
    roll = rng.random() * _MENU_TOTAL
    acc = 0.0
    for gate_type, arity, weight in _GATE_MENU:
        acc += weight
        if roll <= acc:
            return gate_type, arity
    return GateType.AND, 2
