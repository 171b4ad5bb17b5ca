"""CNF formula container with DIMACS I/O.

A :class:`Cnf` is a mutable clause database plus a variable counter. It is
the interchange format between the circuit encoder (:mod:`repro.circuit.
tseitin`), the cardinality encoders and the solvers. Clauses are tuples of
non-zero signed ints (DIMACS convention).
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from pathlib import Path

from repro.errors import ParseError, SolverError
from repro.sat.literals import check_literal, var_of


class Cnf:
    """A CNF formula: a variable pool and a list of clauses.

    >>> cnf = Cnf()
    >>> a, b = cnf.new_var(), cnf.new_var()
    >>> cnf.add_clause([a, b])
    >>> cnf.add_clause([-a])
    >>> cnf.num_vars, cnf.num_clauses
    (2, 2)
    """

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return it (1-based)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append one clause; literals may reference new variables."""
        clause = tuple(lits)
        top = self.num_vars
        for lit in clause:
            if type(lit) is not int or not lit:
                check_literal(lit)  # raises on zero, bools and non-ints
            if lit > top:
                top = lit
            elif -lit > top:
                top = -lit
        self.num_vars = top
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def copy(self) -> "Cnf":
        duplicate = Cnf(self.num_vars)
        duplicate.clauses = list(self.clauses)
        return duplicate

    # ------------------------------------------------------------------
    # Evaluation (used by tests and the DPLL reference solver)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Truth value of the formula under a *total* assignment."""
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                v = var_of(lit)
                if v not in assignment:
                    raise SolverError(f"assignment is missing variable {v}")
                if assignment[v] == (lit > 0):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    # ------------------------------------------------------------------
    # DIMACS serialization
    # ------------------------------------------------------------------
    def to_dimacs(self) -> str:
        """Render in DIMACS CNF format."""
        out = io.StringIO()
        out.write(f"p cnf {self.num_vars} {self.num_clauses}\n")
        for clause in self.clauses:
            out.write(" ".join(str(l) for l in clause))
            out.write(" 0\n")
        return out.getvalue()

    def write_dimacs(self, path: str | Path) -> None:
        Path(path).write_text(self.to_dimacs())

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        """Parse DIMACS CNF text (comments and header tolerated)."""
        cnf = cls()
        declared_vars = None
        pending: list[int] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ParseError(f"bad DIMACS header {line!r}", line_no)
                try:
                    declared_vars = int(parts[2])
                    int(parts[3])
                except ValueError as exc:
                    raise ParseError(f"bad DIMACS header {line!r}", line_no) from exc
                continue
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError as exc:
                    raise ParseError(f"bad literal {token!r}", line_no) from exc
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            raise ParseError("final clause not terminated by 0")
        if declared_vars is not None and declared_vars > cnf.num_vars:
            cnf.num_vars = declared_vars
        return cnf

    @classmethod
    def read_dimacs(cls, path: str | Path) -> "Cnf":
        return cls.from_dimacs(Path(path).read_text())

    def __repr__(self) -> str:
        return f"Cnf(num_vars={self.num_vars}, num_clauses={self.num_clauses})"
