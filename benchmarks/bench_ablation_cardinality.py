"""A1 — Ablation: cardinality encoding for the HD(X, X') = 2h constraint.

The cardinality encoding is a design choice (see
:mod:`repro.sat.cardinality`); this bench times the SlidingWindow
F-query under all three encodings. Expected: sequential counter and totalizer are comparable;
pairwise explodes combinatorially and is only valid for tiny bounds.
"""

from __future__ import annotations

import pytest

from repro.attacks.fall.sliding_window import sliding_window
from repro.circuit.circuit import Circuit
from repro.locking.comparators import add_hamming_distance_equals

_M = 16
_H = 2
_CUBE = tuple((i * 7 + 3) % 2 for i in range(_M))


def _strip_cone() -> Circuit:
    circuit = Circuit("strip")
    names = [f"x{i}" for i in range(_M)]
    for name in names:
        circuit.add_input(name)
    top = add_hamming_distance_equals(circuit, names, list(_CUBE), _H)
    circuit.add_output(top)
    return circuit


@pytest.mark.parametrize("method", ["seq", "totalizer"])
def test_sliding_window_encoding(benchmark, method):
    cone = _strip_cone()
    result = benchmark.pedantic(
        sliding_window,
        args=(cone, _H),
        kwargs={"cardinality_method": method},
        iterations=1,
        rounds=3,
    )
    names = [f"x{i}" for i in range(_M)]
    assert result == dict(zip(names, _CUBE))


def test_cnf_size_by_method():
    from repro.sat.cardinality import encode_exactly
    from repro.sat.cnf import Cnf

    sizes = {}
    for method in ("seq", "totalizer"):
        cnf = Cnf()
        lits = cnf.new_vars(2 * _M)
        encode_exactly(cnf, lits, 2 * _H, method=method)
        sizes[method] = cnf.num_clauses
    print()
    print("exactly-2h CNF clauses:", sizes)
    assert all(size < 20_000 for size in sizes.values())
