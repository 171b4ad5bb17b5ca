"""Gate-level circuit library.

The netlist substrate everything else is built on: a combinational DAG
(:class:`~repro.circuit.circuit.Circuit`), ISCAS ``.bench`` I/O,
bit-parallel simulation, Tseitin CNF encoding, SAT-based equivalence
checking, an AIG with structural hashing (our stand-in for ABC's
``strash``), synthetic benchmark generation and the paper's §II-B
worked example.
"""
