"""Tests for the .bench parser and writer."""

from __future__ import annotations

import pytest

from repro.circuit.bench_io import parse_bench, read_bench, save_bench, write_bench
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.errors import ParseError
from tests.circuits import c17


class TestParse:
    def test_c17_shape(self):
        circuit = c17()
        assert len(circuit.inputs) == 5
        assert circuit.outputs == ("G22", "G23")
        assert circuit.num_gates == 6
        assert all(
            circuit.gate_type(g) is GateType.NAND for g in circuit.gates
        )

    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment

        INPUT(a)
        OUTPUT(y)
        y = NOT(a)
        """
        circuit = parse_bench(text)
        assert circuit.num_gates == 1

    def test_keyinput_declaration(self):
        text = "INPUT(a)\nKEYINPUT(k0)\nOUTPUT(y)\ny = XOR(a, k0)\n"
        circuit = parse_bench(text)
        assert circuit.key_inputs == ("k0",)
        assert circuit.circuit_inputs == ("a",)

    def test_keyinput_name_convention(self):
        text = "INPUT(a)\nINPUT(keyinput3)\nOUTPUT(y)\ny = XOR(a, keyinput3)\n"
        circuit = parse_bench(text)
        assert circuit.key_inputs == ("keyinput3",)

    def test_keys_comment_convention(self):
        text = "# keys: kA kB\nINPUT(a)\nINPUT(kA)\nINPUT(kB)\nOUTPUT(y)\ny = XOR(a, kA)\nz = XOR(y, kB)\nOUTPUT(z)\n"
        circuit = parse_bench(text)
        assert set(circuit.key_inputs) == {"kA", "kB"}

    def test_gate_before_inputs(self):
        text = "y = AND(a, b)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
        circuit = parse_bench(text)
        assert circuit.num_gates == 1

    def test_const_gates(self):
        text = "INPUT(a)\nOUTPUT(y)\nz = CONST1()\ny = AND(a, z)\n"
        circuit = parse_bench(text)
        assert circuit.gate_type("z") is GateType.CONST1

    def test_unknown_gate_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nwat\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT()\n")

    def test_missing_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT a\n")

    def test_gate_without_fanins_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND()\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        assert "line 3" in str(excinfo.value)


class TestWrite:
    def test_roundtrip_c17(self):
        original = c17()
        text = write_bench(original)
        back = parse_bench(text, name="c17")
        assert back.outputs == original.outputs
        assert set(back.inputs) == set(original.inputs)
        result = check_equivalence(original, back)
        assert result.proved

    def test_roundtrip_preserves_keys(self):
        text = "INPUT(a)\nKEYINPUT(k0)\nOUTPUT(y)\ny = XOR(a, k0)\n"
        circuit = parse_bench(text)
        back = parse_bench(write_bench(circuit))
        assert back.key_inputs == ("k0",)

    def test_roundtrip_keeps_non_key_keyinput_names(self):
        # A declared key list is authoritative: a non-key input that
        # happens to carry the ``keyinput`` prefix stays a plain input.
        circuit = Circuit("named")
        circuit.add_input("keyinput0")
        circuit.add_input("k", key=True)
        circuit.add_gate("y", GateType.XOR, ["keyinput0", "k"])
        circuit.add_output("y")
        back = parse_bench(write_bench(circuit))
        assert back.key_inputs == ("k",)
        assert back.circuit_inputs == ("keyinput0",)

    def test_roundtrip_of_a_keyless_circuit_with_keyinput_names(self):
        circuit = Circuit("keyless")
        circuit.add_input("keyinput0")
        circuit.add_gate("y", GateType.NOT, ["keyinput0"])
        circuit.add_output("y")
        text = write_bench(circuit)
        assert "# keys:\n" in text
        assert parse_bench(text).key_inputs == ()

    def test_keyinput_declaration_overrides_the_name_convention(self):
        text = (
            "INPUT(keyinput0)\nKEYINPUT(k)\nOUTPUT(y)\n"
            "y = XOR(keyinput0, k)\n"
        )
        assert parse_bench(text).key_inputs == ("k",)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "c17.bench"
        save_bench(c17(), path)
        back = read_bench(path)
        assert back.name == "c17"
        assert back.num_gates == 6

    def test_writer_emits_topological_order(self):
        text = "y = AND(a, b)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
        circuit = parse_bench(text)
        rendered = write_bench(circuit)
        # must parse back cleanly even though source had forward refs
        assert parse_bench(rendered).num_gates == 1
