"""Known circuits the tests share: the ISCAS'85 c17 netlist."""

from __future__ import annotations

from repro.circuit.bench_io import parse_bench
from repro.circuit.circuit import Circuit

_C17_BENCH = """
# c17 (ISCAS'85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17() -> Circuit:
    """The ISCAS'85 c17 benchmark (5 inputs, 2 outputs, 6 NAND gates)."""
    return parse_bench(_C17_BENCH, name="c17")
