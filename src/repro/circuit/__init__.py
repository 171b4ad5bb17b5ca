"""Gate-level circuit library.

The netlist substrate everything else is built on: a combinational DAG
(:class:`~repro.circuit.circuit.Circuit`), ISCAS ``.bench`` I/O,
bit-parallel simulation, Tseitin CNF encoding, SAT-based equivalence
checking, an AIG with structural hashing (our stand-in for ABC's
``strash``), synthetic benchmark generation and a small library of known
circuits (ISCAS c17 and the paper's §II-B worked example).
"""

from repro.circuit.gates import GateType
from repro.circuit.circuit import Circuit
from repro.circuit.analysis import (
    transitive_fanin,
    support,
    extract_cone,
    circuit_depth,
)
from repro.circuit.compiled import CompiledCircuit, compile_circuit
from repro.circuit.sharding import (
    resolve_jobs,
    sweep_node_values,
    sweep_outputs,
    sweep_popcounts,
    sweep_truth_table,
)
from repro.circuit.simulate import (
    cone_truth_table,
    simulate,
    simulate_interpreted,
    simulate_pattern,
    truth_table,
)
from repro.circuit.bench_io import parse_bench, write_bench
from repro.circuit.tseitin import CircuitEncoding, encode_circuit
from repro.circuit.equivalence import (
    EquivalenceResult,
    check_equivalence,
    check_outputs_equal,
)
from repro.circuit.aig import Aig
from repro.circuit.opt import optimize, sweep
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.library import c17, paper_example_circuit

__all__ = [
    "GateType",
    "Circuit",
    "transitive_fanin",
    "support",
    "extract_cone",
    "circuit_depth",
    "CompiledCircuit",
    "compile_circuit",
    "resolve_jobs",
    "sweep_node_values",
    "sweep_outputs",
    "sweep_popcounts",
    "sweep_truth_table",
    "simulate",
    "simulate_interpreted",
    "simulate_pattern",
    "cone_truth_table",
    "truth_table",
    "parse_bench",
    "write_bench",
    "CircuitEncoding",
    "encode_circuit",
    "EquivalenceResult",
    "check_equivalence",
    "check_outputs_equal",
    "Aig",
    "optimize",
    "sweep",
    "generate_random_circuit",
    "c17",
    "paper_example_circuit",
]
