"""Common locked-circuit representation.

A :class:`LockedCircuit` is what the adversary receives (the locked
netlist with key inputs distinguished — the paper's threat model, §II-A)
plus defender-side bookkeeping (the correct key) that experiments use
to validate attack results.

Attack code must never read the bookkeeping field; it is exposed only
through :meth:`LockedCircuit.reveal_correct_key`, and a test greps the
attack sources to enforce the separation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit
from repro.errors import LockingError


@dataclass
class LockedCircuit:
    """A locked netlist plus defender-side metadata.

    ``circuit`` has its key inputs marked (``circuit.key_inputs`` equals
    ``key_names``). ``h`` is the SFLL Hamming-distance parameter (0 for
    TTLock, ``None`` for schemes without one). The correct key is kept
    for the defender side only (``reveal_correct_key``).
    """

    circuit: Circuit
    scheme: str
    key_names: tuple[str, ...]
    h: int | None = None
    _correct_key: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if tuple(self.circuit.key_inputs) != tuple(self.key_names):
            raise LockingError(
                "key_names must match the circuit's marked key inputs "
                f"({self.circuit.key_inputs} vs {self.key_names})"
            )
        if self._correct_key and len(self._correct_key) != len(self.key_names):
            raise LockingError("correct key width does not match key count")

    @property
    def key_width(self) -> int:
        return len(self.key_names)

    def reveal_correct_key(self) -> tuple[int, ...]:
        """Defender-side accessor — never called from attack code."""
        if not self._correct_key:
            raise LockingError("no correct key recorded for this circuit")
        return self._correct_key

    def key_assignment(self, key_bits: Sequence[int]) -> dict[str, int]:
        """Map a key bit-vector onto the named key inputs."""
        if len(key_bits) != len(self.key_names):
            raise LockingError(
                f"key width mismatch: got {len(key_bits)} bits for "
                f"{len(self.key_names)} key inputs"
            )
        return dict(zip(self.key_names, key_bits))

    def unlocked_with(self, key_bits: Sequence[int]) -> Circuit:
        """The circuit with the given key burned in as constants."""
        return apply_key(self.circuit, self.key_assignment(key_bits))


def apply_key(circuit: Circuit, key_values: Mapping[str, int]) -> Circuit:
    """Replace key inputs by constant nodes (activation, §I).

    This models programming the tamper-proof memory: the returned circuit
    has no key inputs and computes the locked function at that key.
    """
    for name in key_values:
        if not circuit.has_node(name):
            raise LockingError(f"unknown key input {name!r}")
        if not circuit.is_key_input(name):
            raise LockingError(f"{name!r} is not a key input")
    result = Circuit(f"{circuit.name}~activated")
    for node in circuit.nodes:
        if node in key_values:
            result.add_const(node, int(key_values[node]))
        else:
            result.add_node(
                node,
                circuit.gate_type(node),
                circuit.fanins(node),
                key=circuit.is_key_input(node),
            )
    for output in circuit.outputs:
        result.add_output(output)
    return result


def choose_target_output(circuit: Circuit) -> str:
    """The output with the widest support (deterministic tie-break).

    The paper locks a single output ("additional outputs are handled
    symmetrically", Figure 1); we pick the most interesting one.
    """
    from repro.circuit.analysis import support_table

    if not circuit.outputs:
        raise LockingError("circuit has no outputs")
    table = support_table(circuit)
    return max(circuit.outputs, key=lambda o: (len(table[o]), o))


def choose_protected_inputs(circuit: Circuit, key_width: int) -> tuple[str, ...]:
    """The circuit inputs covered by the protected cube.

    Following the paper's setup (key size = min(#inputs, cap)), we take
    the first ``key_width`` circuit inputs in declaration order.
    """
    inputs = circuit.circuit_inputs
    if key_width > len(inputs):
        raise LockingError(
            f"key width {key_width} exceeds input count {len(inputs)}"
        )
    if key_width < 1:
        raise LockingError("key width must be at least 1")
    return tuple(inputs[:key_width])
