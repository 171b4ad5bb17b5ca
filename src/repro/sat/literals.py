"""Literal conventions.

Externally (everywhere outside ``repro.sat.solver`` internals) a literal
is a DIMACS-style signed integer: variable ``v >= 1``, positive literal
``+v``, negative literal ``-v``. Zero is never a literal.

The CDCL solver internally re-maps literals to dense even/odd indices
(``2*v`` for ``+v``, ``2*v + 1`` for ``-v``) so that negation is ``^ 1``
and arrays can be indexed directly. These helpers convert between the
two and validate user input at the API boundary.
"""

from __future__ import annotations

from repro.errors import SolverError


def check_literal(lit: int) -> int:
    """Validate an external literal, returning it unchanged."""
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise SolverError(f"invalid literal {lit!r}: literals are non-zero ints")
    return lit


def to_internal(lit: int) -> int:
    """External signed literal -> internal even/odd index."""
    if lit > 0:
        return lit << 1
    return ((-lit) << 1) | 1
