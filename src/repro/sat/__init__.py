"""Pure-Python SAT stack.

This subpackage replaces the Lingeling solver used by the paper's
prototype with a self-contained CDCL implementation, plus the CNF
plumbing (Tseitin-style gate encodings, cardinality constraints) that
the FALL analyses and the SAT attack are built on. The reference DPLL
solver that the CDCL solver is differentially tested against lives with
those tests (``tests/sat/dpll.py``).
"""

from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus
from repro.sat.cardinality import (
    encode_at_most,
    encode_at_least,
    encode_exactly,
)
from repro.sat.encodings import encode_xor, encode_hamming_distance_equals

__all__ = [
    "Cnf",
    "Solver",
    "SolveStatus",
    "encode_at_most",
    "encode_at_least",
    "encode_exactly",
    "encode_xor",
    "encode_hamming_distance_equals",
]
