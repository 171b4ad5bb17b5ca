"""Compile-once circuit simulation engine.

The interpreted :func:`repro.circuit.simulate.simulate` walks the
netlist with a fresh DFS topological sort, resolves every fanin through
name dicts and dispatches each gate through an enum ``is``-chain — on
*every* call. Every functional analysis in the FALL reproduction (SPS
probability sweeps, unateness/Hamming prefilters, comparator
identification, the I/O oracle, equivalence refutation) re-simulates the
same circuit hundreds to thousands of times, so that per-call overhead
dominates the attack runtime.

:class:`CompiledCircuit` removes it by compiling a :class:`Circuit` once
into a flat straight-line Python function:

- the topological order is computed once per evaluated region and baked
  into the generated code;
- node names become local variables (``v17``), so the inner loop does no
  dict lookups at all;
- each gate is specialized to its exact expression (``v9 = mask ^ (v3 &
  v7)``) — no dispatch, no ``reduce``, no list building;
- per-target cone slices and the region's required inputs are
  precomputed and cached, keyed by target set.

Compiled artifacts are cached per :class:`Circuit` *and* per structural
version (see :attr:`Circuit.structural_version`), so mutation safely
invalidates them: call :func:`compile_circuit` freely — it is a dict
lookup plus an int compare when the cache is warm.

Use :func:`compile_circuit(circuit).simulate(...) <CompiledCircuit.simulate>`
— or the drop-in :func:`repro.circuit.simulate.simulate` facade, which
now delegates here — for general node-level results, and the specialized
entry points (:meth:`CompiledCircuit.eval_outputs`,
:meth:`CompiledCircuit.query_batch`) for output-only and batched oracle
workloads where skipping the full node dict matters.

The generated function runs on packed Python ints: pattern ``j`` lives
in bit ``j`` of one int per signal. Wide pattern-parallel sweeps should
use the bulk entry points —
:meth:`CompiledCircuit.eval_outputs_sliced`,
:meth:`CompiledCircuit.node_values_sliced`,
:meth:`CompiledCircuit.node_popcounts` — which evaluate thousands of
patterns per pass instead of one pattern per call.
"""

from __future__ import annotations

import weakref
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


class _Program:
    """One generated straight-line function for a fixed evaluated region."""

    __slots__ = ("fn", "input_names", "result_names")

    def __init__(self, fn, input_names: tuple[str, ...],
                 result_names: tuple[str, ...]):
        self.fn = fn
        self.input_names = input_names
        self.result_names = result_names


class CompiledCircuit:
    """Flat, immutable compiled form of a :class:`Circuit`.

    Snapshots the structure at construction time and never reads the
    source circuit again; use :func:`compile_circuit` to get a cached
    instance that tracks the circuit's structural version.
    """

    def __init__(self, circuit: Circuit):
        self.name = circuit.name
        self.version = circuit.structural_version
        self.input_names = circuit.inputs
        self.output_names = circuit.outputs
        self.key_input_names = circuit.key_inputs
        self.circuit_input_names = circuit.circuit_inputs
        nodes = circuit.nodes
        self._types: dict[str, GateType] = {
            n: circuit.gate_type(n) for n in nodes
        }
        self._fanins: dict[str, tuple[str, ...]] = {
            n: circuit.fanins(n) for n in nodes
        }
        self._ident = {n: f"v{i}" for i, n in enumerate(nodes)}
        self._programs: dict[object, _Program] = {}
        self._cone_inputs: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Structure queries on the snapshot
    # ------------------------------------------------------------------
    def cone_inputs(self, node: str) -> tuple[str, ...]:
        """Primary inputs in ``node``'s fanin cone, in declaration order."""
        cached = self._cone_inputs.get(node)
        if cached is None:
            region = set(self._region_order((node,)))
            cached = tuple(n for n in self.input_names if n in region)
            self._cone_inputs[node] = cached
        return cached

    def _region_order(self, targets: Sequence[str] | None) -> list[str]:
        """Fanin-before-fanout order of the targets' cones (or all nodes)."""
        wanted = list(self._types) if targets is None else list(targets)
        return topological_region_order(self._fanins, wanted)

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

    def _build_program(
        self,
        targets: Sequence[str] | None,
        results: Sequence[str] | None,
    ) -> _Program:
        order = self._region_order(targets)
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
        result_names = tuple(order if results is None else results)
        returned = ", ".join(self._ident[n] for n in result_names)
        if len(result_names) == 1:
            returned += ","
        lines.append(f"    return ({returned})")
        namespace: dict[str, object] = {"__builtins__": {}}
        exec(  # noqa: S102 — source is generated from the snapshot only
            compile("\n".join(lines), f"<compiled:{self.name}>", "exec"),
            namespace,
        )
        return _Program(namespace["_compiled"], region_inputs, result_names)

    def _program(
        self,
        targets: Sequence[str] | None,
        results: Sequence[str] | None = None,
    ) -> _Program:
        key: object
        if targets is None:
            key = None if results is None else ("results", tuple(results))
        else:
            key = (frozenset(targets), None if results is None
                   else tuple(results))
        program = self._programs.get(key)
        if program is None:
            program = self._build_program(targets, results)
            self._programs[key] = program
        return program

    # ------------------------------------------------------------------
    # Simulation entry points
    # ------------------------------------------------------------------
    def _gather_inputs(
        self, program: _Program, input_values: Mapping[str, int]
    ) -> list[int]:
        try:
            return [input_values[name] for name in program.input_names]
        except KeyError as missing:
            raise CircuitError(
                f"no value provided for input {missing.args[0]!r}"
            ) from None

    def simulate(
        self,
        input_values: Mapping[str, int],
        width: int = 1,
        targets: Sequence[str] | None = None,
    ) -> dict[str, int]:
        """Packed simulation with the same contract as ``simulate()``.

        Returns packed values for every node in the evaluated region
        (all nodes, or the fanin cones of ``targets``).
        """
        if width < 1:
            raise CircuitError(f"width must be >= 1, got {width}")
        program = self._program(targets)
        values = program.fn(
            self._gather_inputs(program, input_values), (1 << width) - 1
        )
        return dict(zip(program.result_names, values))

    def node_values(
        self,
        nodes: Sequence[str],
        input_values: Mapping[str, int],
        width: int = 1,
    ) -> tuple[int, ...]:
        """Packed values of exactly ``nodes`` — no dict of the full region."""
        if width < 1:
            raise CircuitError(f"width must be >= 1, got {width}")
        program = self._program(tuple(nodes), results=tuple(nodes))
        return program.fn(
            self._gather_inputs(program, input_values), (1 << width) - 1
        )

    def eval_outputs(
        self, input_values: Mapping[str, int], width: int = 1
    ) -> tuple[int, ...]:
        """Packed output values (in declaration order) — the oracle path."""
        if width < 1:
            raise CircuitError(f"width must be >= 1, got {width}")
        program = self._program(self.output_names, results=self.output_names)
        return program.fn(
            self._gather_inputs(program, input_values), (1 << width) - 1
        )

    def _sliced_inputs(
        self,
        program: _Program,
        patterns,
        width: int | None,
    ) -> tuple[list[int], int]:
        """Normalize a bulk-pattern argument to (packed words, width).

        Accepts a mapping of already-packed words (``width`` required),
        a sequence of per-pattern 0/1 mappings, or a sequence of
        per-pattern bit rows following :attr:`input_names` order.
        """
        if isinstance(patterns, Mapping):
            if width is None:
                raise CircuitError(
                    "width is required when patterns are packed words"
                )
            if width < 1:
                raise CircuitError(f"width must be >= 1, got {width}")
            return self._gather_inputs(program, patterns), width
        rows = list(patterns)
        if width is not None and width != len(rows):
            raise CircuitError(
                f"width {width} does not match pattern count {len(rows)}"
            )
        if not rows:
            raise CircuitError("sliced evaluation needs at least one pattern")
        if isinstance(rows[0], Mapping):
            packed = pack_patterns(program.input_names, rows)
            return [packed[n] for n in program.input_names], len(rows)
        position = {name: i for i, name in enumerate(self.input_names)}
        words: list[int] = []
        for name in program.input_names:
            column = position[name]
            word = 0
            for j, row in enumerate(rows):
                if row[column]:
                    word |= 1 << j
            words.append(word)
        return words, len(rows)

    def eval_outputs_sliced(
        self,
        patterns,
        width: int | None = None,
    ) -> tuple[int, ...]:
        """Outputs for many patterns in one bit-sliced pass.

        ``patterns`` is a mapping of packed input words (with ``width``),
        a sequence of 0/1 mappings, or a sequence of bit rows in
        :attr:`input_names` order. Returns one packed word per output:
        bit ``j`` of word ``o`` is output ``o`` under pattern ``j``.
        This is the bulk entry point wide sweeps should use — one call
        replaces thousands of single-pattern :meth:`eval_outputs` calls.
        """
        program = self._program(self.output_names, results=self.output_names)
        words, width = self._sliced_inputs(program, patterns, width)
        return program.fn(words, (1 << width) - 1)

    def node_values_sliced(
        self,
        nodes: Sequence[str],
        patterns,
        width: int | None = None,
    ) -> tuple[int, ...]:
        """Bit-sliced values of exactly ``nodes`` for many patterns."""
        program = self._program(tuple(nodes), results=tuple(nodes))
        words, width = self._sliced_inputs(program, patterns, width)
        return program.fn(words, (1 << width) - 1)

    def node_popcounts(
        self,
        input_values: Mapping[str, int],
        width: int,
        targets: Sequence[str] | None = None,
    ) -> dict[str, int]:
        """Set-bit counts per node of one packed ``width``-wide pass.

        The signal-probability workload (SPS, density ranking).
        """
        if width < 1:
            raise CircuitError(f"width must be >= 1, got {width}")
        program = self._program(targets)
        values = program.fn(
            self._gather_inputs(program, input_values), (1 << width) - 1
        )
        return {
            name: value.bit_count()
            for name, value in zip(program.result_names, values)
        }

    def query_batch(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> list[tuple[int, ...]]:
        """Outputs for many single 0/1 patterns via one wide simulation.

        Packs pattern ``j`` into bit ``j`` of every input word, runs the
        outputs-only program once, and unpacks per-pattern output tuples.
        Callers that can consume packed words directly should prefer
        :meth:`eval_outputs_sliced`, which skips the per-pattern
        unpacking entirely.
        """
        width = len(assignments)
        if width == 0:
            return []
        return unpack_sliced_rows(self.eval_outputs_sliced(assignments), width)

    def truth_table(self, node: str) -> tuple[int, tuple[str, ...]]:
        """Exhaustive table of ``node`` over its own support.

        Returns ``(table, support_inputs)``: bit ``j`` of ``table`` is
        the node's value when support input ``i`` (in ``support_inputs``
        order) is bit ``i`` of ``j``. Only the cone is enumerated, so
        the ≤24-input limit applies to the cone, not the whole circuit.
        """
        support = self.cone_inputs(node)
        words = canonical_input_words(len(support))
        width = 1 << len(support)
        values = dict(zip(support, words))
        (table,) = self.node_values([node], values, width=width)
        return table, support

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.name!r}, nodes={len(self._types)}, "
            f"version={self.version})"
        )


_COMPILE_CACHE: "weakref.WeakKeyDictionary[Circuit, CompiledCircuit]" = (
    weakref.WeakKeyDictionary()
)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """The cached compiled form of ``circuit`` (rebuilt after mutation).

    The cache is keyed weakly by circuit identity and checked against
    :attr:`Circuit.structural_version`, so holding the result across
    mutations is safe as long as it is re-fetched through this function.
    """
    compiled = _COMPILE_CACHE.get(circuit)
    if compiled is None or compiled.version != circuit.structural_version:
        compiled = CompiledCircuit(circuit)
        _COMPILE_CACHE[circuit] = compiled
    return compiled
