"""Pure-Python SAT stack.

This subpackage replaces the Lingeling solver used by the paper's
prototype with a self-contained CDCL implementation, plus the CNF
plumbing (DIMACS I/O, Tseitin-style gate encodings, cardinality
constraints) that the FALL analyses and the SAT attack are built on.
"""

from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.sat.dpll import dpll_solve
from repro.sat.cardinality import (
    encode_at_most,
    encode_at_least,
    encode_exactly,
)
from repro.sat.encodings import (
    encode_and,
    encode_or,
    encode_xor,
    encode_xnor,
    encode_equal_vectors,
    encode_hamming_distance_equals,
)

__all__ = [
    "Cnf",
    "Solver",
    "SolveStatus",
    "dpll_solve",
    "encode_at_most",
    "encode_at_least",
    "encode_exactly",
    "encode_and",
    "encode_or",
    "encode_xor",
    "encode_xnor",
    "encode_equal_vectors",
    "encode_hamming_distance_equals",
]
