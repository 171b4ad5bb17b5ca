"""Pure-Python SAT stack.

This subpackage replaces the Lingeling solver used by the paper's
prototype with a self-contained CDCL implementation, plus the CNF
plumbing (Tseitin-style gate encodings, cardinality constraints) that
the FALL analyses and the SAT attack are built on. The reference DPLL
solver that the CDCL solver is differentially tested against lives with
those tests (``tests/sat/dpll.py``).
"""
