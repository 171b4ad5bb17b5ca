"""The input/output oracle: an activated IC in the adversary's lab.

The paper's threat model (§II-A) optionally grants the adversary an
activated circuit "which can be used to observe the output for a
specific input". We model it as a wrapper over the *original* circuit
that answers single-pattern queries and counts them (query counts are an
attack-cost metric alongside wall-clock time).

Queries run on the compile-once engine
(:mod:`repro.circuit.compiled`): the oracle circuit is compiled to a
flat outputs-only evaluator on first use, so a query is one generated-
function call instead of a full interpreted netlist walk. Attack loops
that need many patterns at once should use :meth:`IOOracle.query_batch`
(per-pattern dict rows) or :meth:`IOOracle.query_sliced` (packed words,
one per output), both of which pack all patterns with
:func:`~repro.circuit.compiled.pack_patterns` into one wide bit-sliced
simulation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import (
    compile_circuit,
    pack_patterns,
    unpack_sliced_rows,
)
from repro.circuit.sharding import sweep_outputs
from repro.circuit.simulate import require_binary_inputs
from repro.errors import AttackError


class IOOracle:
    """Query interface to an unlocked (activated) circuit."""

    def __init__(self, circuit: Circuit):
        if circuit.key_inputs:
            raise AttackError(
                "oracle circuit still has key inputs; activate it first "
                "(LockedCircuit.unlocked_with or locking.apply_key)"
            )
        self._circuit = circuit
        self.query_count = 0

    @property
    def circuit(self) -> Circuit:
        """The activated netlist (for process shipping / rebuilding)."""
        return self._circuit

    @property
    def input_names(self) -> tuple[str, ...]:
        return self._circuit.circuit_inputs

    @property
    def output_names(self) -> tuple[str, ...]:
        return self._circuit.outputs

    def _check_assignment(self, assignment: Mapping[str, int]) -> None:
        missing = [n for n in self.input_names if n not in assignment]
        if missing:
            raise AttackError(f"oracle query missing inputs: {missing}")
        require_binary_inputs(assignment, self.input_names)

    def query(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Outputs for one input pattern (0/1 values keyed by name)."""
        self._check_assignment(assignment)
        self.query_count += 1
        outputs = compile_circuit(self._circuit).eval_outputs_sliced(
            assignment, width=1
        )
        return dict(zip(self.output_names, outputs))

    def query_batch(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> list[dict[str, int]]:
        """Outputs for many patterns via one packed wide simulation.

        Counts one oracle query per pattern (the metric is unchanged);
        only the simulation cost is amortized, with pattern ``j`` packed
        into bit ``j`` of each input word.
        """
        for assignment in assignments:
            self._check_assignment(assignment)
        self.query_count += len(assignments)
        if not assignments:
            return []
        rows = unpack_sliced_rows(self._sweep(assignments), len(assignments))
        return [dict(zip(self.output_names, row)) for row in rows]

    def query_sliced(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> tuple[int, ...]:
        """Packed outputs for many patterns: bit ``j`` = pattern ``j``.

        Same metric semantics as :meth:`query_batch` (one counted query
        per pattern) but the result stays bit-sliced — one packed word
        per output name — so bulk consumers (AppSAT validation rounds)
        can diff whole sample sets with a handful of bitwise ops instead
        of unpacking per-pattern dicts.
        """
        for assignment in assignments:
            self._check_assignment(assignment)
        self.query_count += len(assignments)
        if not assignments:
            return tuple(0 for _ in self.output_names)
        return self._sweep(assignments)

    def _sweep(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> tuple[int, ...]:
        """Packed outputs of one pass with pattern ``j`` in bit ``j``."""
        packed = pack_patterns(self.input_names, assignments)
        return sweep_outputs(self._circuit, packed, len(assignments))


def require_matching_oracle(locked: Circuit, oracle: IOOracle) -> None:
    """Raise :class:`~repro.errors.AttackError` unless ``oracle`` takes
    the locked netlist's non-key inputs and gives its outputs, by name."""
    if set(oracle.input_names) != set(locked.circuit_inputs):
        raise AttackError("oracle inputs do not match the locked netlist")
    if set(oracle.output_names) != set(locked.outputs):
        raise AttackError("oracle outputs do not match the locked netlist")
