"""ISCAS ``.bench`` netlist format.

The format used by the ISCAS'85 benchmark distribution and by prior
logic-locking tools (including the paper's artifact):

    # comment
    INPUT(a)
    OUTPUT(y)
    n1 = NAND(a, b)
    y  = NOT(n1)

Extension for locked netlists: key inputs are declared with a
``KEYINPUT(k)`` line or a ``# keys:`` comment listing key names. A file
that declares keys either way has exactly those keys; only a file that
declares none falls back to the widely used convention of naming key
inputs with a ``keyinput`` prefix. The writer emits ``INPUT`` lines plus
a ``# keys:`` comment — empty for a keyless circuit — so key markings
round-trip through this parser whatever the inputs are named.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuit.circuit import Circuit
from repro.circuit.gates import BENCH_NAMES, GateType
from repro.errors import ParseError

_KEY_NAME_PREFIX = "keyinput"


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`."""
    circuit = Circuit(name)
    outputs: list[str] = []
    key_names: set[str] = set()
    keys_declared = False
    declared_inputs: list[str] = []
    gate_lines: list[tuple[int, str, str, list[str]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.lower().startswith("keys:"):
                keys_declared = True
                key_names.update(comment[5:].replace(",", " ").split())
            continue
        if not line:
            continue
        upper = line.upper()
        if upper.startswith(("INPUT(", "KEYINPUT(")) and line.endswith(")"):
            inner = line[line.index("(") + 1 : -1].strip()
            if not inner:
                raise ParseError("empty INPUT declaration", line_no)
            declared_inputs.append(inner)
            if upper.startswith("KEYINPUT("):
                keys_declared = True
                key_names.add(inner)
            continue
        if upper.startswith("OUTPUT(") and line.endswith(")"):
            inner = line[line.index("(") + 1 : -1].strip()
            if not inner:
                raise ParseError("empty OUTPUT declaration", line_no)
            outputs.append(inner)
            continue
        if "=" not in line:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        target, expr = (part.strip() for part in line.split("=", 1))
        if "(" not in expr or not expr.endswith(")"):
            raise ParseError(f"malformed gate expression {expr!r}", line_no)
        op_name = expr[: expr.index("(")].strip().upper()
        args_text = expr[expr.index("(") + 1 : -1]
        args = [a.strip() for a in args_text.split(",") if a.strip()]
        gate_lines.append((line_no, target, op_name, args))

    if not keys_declared:
        key_names = {
            name for name in declared_inputs
            if name.lower().startswith(_KEY_NAME_PREFIX)
        }
    for input_name in declared_inputs:
        circuit.add_input(input_name, key=input_name in key_names)
    for line_no, target, op_name, args in gate_lines:
        if op_name == "CONST0" or (op_name == "GND" and not args):
            circuit.add_const(target, 0)
            continue
        if op_name == "CONST1" or (op_name == "VDD" and not args):
            circuit.add_const(target, 1)
            continue
        gate_type = BENCH_NAMES.get(op_name)
        if gate_type is None:
            raise ParseError(f"unknown gate type {op_name!r}", line_no)
        if not args:
            raise ParseError(f"gate {target!r} has no fanins", line_no)
        circuit.add_gate(target, gate_type, args)
    for output_name in outputs:
        circuit.add_output(output_name)
    circuit.validate()
    return circuit


def read_bench(path: str | Path) -> Circuit:
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


_GATE_TO_BENCH: dict[GateType, str] = {
    GateType.BUF: "BUF",
    GateType.NOT: "NOT",
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}


def write_bench(circuit: Circuit) -> str:
    """Render a circuit as ``.bench`` text (round-trips key markings)."""
    lines = [f"# {circuit.name}", " ".join(("# keys:",) + circuit.key_inputs)]
    for input_name in circuit.inputs:
        lines.append(f"INPUT({input_name})")
    for output_name in circuit.outputs:
        lines.append(f"OUTPUT({output_name})")
    for node in circuit.topological_order():
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            continue
        keyword = _GATE_TO_BENCH[gate_type]
        if gate_type.is_constant:
            lines.append(f"{node} = {keyword}()")
        else:
            args = ", ".join(circuit.fanins(node))
            lines.append(f"{node} = {keyword}({args})")
    return "\n".join(lines) + "\n"


def save_bench(circuit: Circuit, path: str | Path) -> None:
    Path(path).write_text(write_bench(circuit))
