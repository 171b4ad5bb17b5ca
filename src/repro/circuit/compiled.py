"""Compile-once circuit simulation engine.

Every functional analysis in the FALL reproduction (comparator
identification, density ranking, unateness prefilters, cube refutation,
SPS probability sweeps, the I/O oracle) re-simulates the same circuit
many times. :class:`CompiledCircuit` compiles a :class:`Circuit` once
into flat straight-line Python functions: the topological order is
baked in, node names become local variables (``v17``) and each gate is
its exact expression (``v9 = mask ^ (v3 & v7)``), so a call does no
dict lookups and no gate dispatch.

There is one evaluation path, :meth:`CompiledCircuit.node_values`:
packed input words in, the packed values of the requested nodes out.
Pattern ``j`` lives in bit ``j`` of one Python int per signal, so one
call evaluates as many patterns as ``width`` says.
:meth:`CompiledCircuit.eval_outputs_sliced` is the same call for the
outputs. One program is generated per requested node tuple, over those
nodes' fanin cones only, and cached.

A circuit's compiled engine is cached in its derived-structure memo
(``Circuit._memo``) like its topological orders and fanout tables, so
any structural mutation drops it: call :func:`compile_circuit` freely —
it is one dict lookup when the cache is warm. Callers holding
per-pattern 0/1 dicts pack them with :func:`pack_patterns`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuit.circuit import Circuit, topological_region_order
from repro.circuit.gates import GateType
from repro.errors import CircuitError

_MAX_EXHAUSTIVE_INPUTS = 24
_CANONICAL_CACHE_MAX_INPUTS = 20
_CANONICAL_CACHE: dict[int, tuple[int, ...]] = {}


def canonical_input_words(n: int) -> tuple[int, ...]:
    """The ``n`` canonical exhaustive pattern words, memoized by ``n``.

    Word ``i`` has bit ``j`` equal to bit ``i`` of ``j`` — assigning word
    ``i`` to input ``i`` makes one ``2^n``-wide simulation an exhaustive
    truth-table sweep. The words depend only on ``n``, so repeated cone
    sweeps (the FALL prefilter calls this per candidate) reuse the same
    bignums instead of rebuilding them.
    """
    if n > _MAX_EXHAUSTIVE_INPUTS:
        raise CircuitError(
            f"exhaustive simulation over {n} inputs is too large "
            f"(max {_MAX_EXHAUSTIVE_INPUTS})"
        )
    words = _CANONICAL_CACHE.get(n)
    if words is None:
        width = 1 << n
        built = []
        for i in range(n):
            period = 1 << i
            word = ((1 << period) - 1) << period  # 0..0 1..1 over 2*period
            span = period * 2
            while span < width:  # doubling: O(log) bignum ops, not O(2^n/2^i)
                word |= word << span
                span *= 2
            built.append(word)
        words = tuple(built)
        if n <= _CANONICAL_CACHE_MAX_INPUTS:  # bound cache memory
            _CANONICAL_CACHE[n] = words
    return words


def pack_patterns(
    names: Sequence[str], assignments: Sequence[Mapping[str, int]]
) -> dict[str, int]:
    """Pack 0/1 pattern ``j`` into bit ``j`` of one word per input name."""
    packed: dict[str, int] = {}
    for name in names:
        word = 0
        for j, assignment in enumerate(assignments):
            if assignment[name]:
                word |= 1 << j
        packed[name] = word
    return packed


def unpack_sliced_rows(
    words: Sequence[int], count: int
) -> list[tuple[int, ...]]:
    """Transpose packed per-signal words into ``count`` per-pattern rows.

    Row ``j`` collects bit ``j`` of every word — the inverse of
    :func:`pack_patterns` on the result side.
    """
    return [tuple((word >> j) & 1 for word in words) for j in range(count)]


class CompiledCircuit:
    """Flat, immutable compiled form of a :class:`Circuit`.

    Snapshots the structure at construction time and never reads the
    source circuit again; use :func:`compile_circuit` to get the cached
    instance for the circuit's current structure.
    """

    def __init__(self, circuit: Circuit):
        self.name = circuit.name
        self.output_names = circuit.outputs
        nodes = circuit.nodes
        self._types: dict[str, GateType] = {
            n: circuit.gate_type(n) for n in nodes
        }
        self._fanins: dict[str, tuple[str, ...]] = {
            n: circuit.fanins(n) for n in nodes
        }
        self._ident = {n: f"v{i}" for i, n in enumerate(nodes)}
        # node tuple -> (generated function, the inputs it reads, in order)
        self._programs: dict[tuple[str, ...], tuple] = {}

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _gate_expression(self, node: str) -> str:
        gate_type = self._types[node]
        operands = [self._ident[f] for f in self._fanins[node]]
        if gate_type is GateType.AND:
            return " & ".join(operands)
        if gate_type is GateType.NAND:
            return f"mask ^ ({' & '.join(operands)})"
        if gate_type is GateType.OR:
            return " | ".join(operands)
        if gate_type is GateType.NOR:
            return f"mask ^ ({' | '.join(operands)})"
        if gate_type is GateType.XOR:
            return " ^ ".join(operands)
        if gate_type is GateType.XNOR:
            return f"mask ^ ({' ^ '.join(operands)})"
        if gate_type is GateType.NOT:
            return f"mask ^ {operands[0]}"
        if gate_type is GateType.BUF:
            return operands[0]
        if gate_type is GateType.CONST0:
            return "0"
        if gate_type is GateType.CONST1:
            return "mask"
        raise CircuitError(f"cannot compile node of type {gate_type.value}")

    def _build_program(self, nodes: tuple[str, ...]) -> tuple:
        """The straight-line function over the cones of ``nodes``."""
        order = topological_region_order(self._fanins, nodes)
        region_inputs = tuple(
            n for n in order if self._types[n] is GateType.INPUT
        )
        input_position = {n: i for i, n in enumerate(region_inputs)}
        lines = ["def _compiled(I, mask):"]
        for node in order:
            ident = self._ident[node]
            if self._types[node] is GateType.INPUT:
                lines.append(f"    {ident} = I[{input_position[node]}] & mask")
            else:
                lines.append(f"    {ident} = {self._gate_expression(node)}")
        returned = ", ".join(self._ident[n] for n in nodes)
        if len(nodes) == 1:
            returned += ","
        lines.append(f"    return ({returned})")
        namespace: dict[str, object] = {"__builtins__": {}}
        exec(  # noqa: S102 — source is generated from the snapshot only
            compile("\n".join(lines), f"<compiled:{self.name}>", "exec"),
            namespace,
        )
        return namespace["_compiled"], region_inputs

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def node_values(
        self,
        nodes: Sequence[str],
        values: Mapping[str, int],
        width: int,
    ) -> tuple[int, ...]:
        """Packed values of exactly ``nodes``, in the order given.

        ``values`` maps every input in the nodes' fanin cones to a packed
        word: bit ``j`` is the input's value in pattern ``j``. Bits at or
        above ``width`` are ignored. Bit ``j`` of each returned word is
        that node's value under pattern ``j``.
        """
        if width < 1:
            raise CircuitError(f"width must be >= 1, got {width}")
        key = tuple(nodes)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._build_program(key)
        fn, input_names = program
        try:
            words = [values[name] for name in input_names]
        except KeyError as missing:
            raise CircuitError(
                f"no value provided for input {missing.args[0]!r}"
            ) from None
        return fn(words, (1 << width) - 1)

    def eval_outputs_sliced(
        self, values: Mapping[str, int], width: int
    ) -> tuple[int, ...]:
        """:meth:`node_values` of the outputs, in declaration order."""
        return self.node_values(self.output_names, values, width)

    def __repr__(self) -> str:
        return f"CompiledCircuit({self.name!r}, nodes={len(self._types)})"


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """The cached compiled form of ``circuit`` (rebuilt after mutation).

    A held engine keeps answering for the structure it snapshotted;
    re-fetch it through this function after mutating the circuit.
    """
    return circuit._memo("compiled", lambda: CompiledCircuit(circuit))
