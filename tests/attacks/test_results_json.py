"""AttackResult JSON serialization: the round-trip guarantee.

``AttackResult.from_json_dict(json.loads(json.dumps(r.to_json_dict())))
== r.sanitized()`` must hold for
*any* result — including the messy in-process shapes attacks
historically produced (``FallReport`` dataclasses, reconstructed
``Circuit`` netlists, raw ``SolverStats`` dicts, tuples) — and
``== r`` exactly for engine-produced results, whose details are already
canonical.
"""

from __future__ import annotations

import json

import pytest

from repro.attacks.fall.pipeline import FallReport
from repro.attacks.results import (
    AttackResult,
    AttackStatus,
    circuit_from_details,
    jsonify_details,
)
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.sat.solver import SolverStats


def _round_trip(result: AttackResult) -> AttackResult:
    text = json.dumps(result.to_json_dict())
    return AttackResult.from_json_dict(json.loads(text))


class TestRoundTrip:
    def test_minimal_result(self):
        result = AttackResult(attack="x", status=AttackStatus.FAILED)
        assert _round_trip(result) == result

    def test_full_result_fields(self):
        result = AttackResult(
            attack="sat",
            status=AttackStatus.SUCCESS,
            key=(1, 0, 1),
            key_names=("k0", "k1", "k2"),
            candidates=((1, 0, 1), (0, 1, 0)),
            elapsed_seconds=1.25,
            oracle_queries=42,
            iterations=7,
            details={"solver": SolverStats().as_dict()},
        )
        back = _round_trip(result)
        assert back == result
        assert back.key == (1, 0, 1)  # tuples restored, not lists
        assert back.candidates == ((1, 0, 1), (0, 1, 0))
        assert back.status is AttackStatus.SUCCESS

    def test_messy_details_round_trip_via_sanitized(self):
        """Tuples, enums, sets and dataclasses in details all survive."""
        result = AttackResult(
            attack="messy",
            status=AttackStatus.MULTIPLE_CANDIDATES,
            details={
                "report": FallReport(candidate_keys=[(1, 0), (0, 1)]),
                "status_echo": AttackStatus.TIMEOUT,
                "nodes": {"b", "a"},
                "pair": (1, 2),
                "nested": {"deep": [(0, 1), {"x": (2, 3)}]},
            },
        )
        back = _round_trip(result)
        assert back == result.sanitized()
        assert back.details["pair"] == [1, 2]
        assert back.details["nodes"] == ["a", "b"]
        assert back.details["status_echo"] == "timeout"
        assert back.details["report"]["__type__"] == "FallReport"
        assert back.details["report"]["candidate_keys"] == [[1, 0], [0, 1]]

    def test_sanitized_is_a_fixed_point(self):
        result = AttackResult(
            attack="x",
            status=AttackStatus.SUCCESS,
            details={"report": FallReport(), "t": (1, (2, 3))},
        ).sanitized()
        assert result.sanitized() == result
        assert _round_trip(result) == result

    def test_circuit_details_round_trip_to_equivalent_netlist(self):
        """A reconstructed netlist survives serialization functionally."""
        circuit = paper_example_circuit()
        result = AttackResult(
            attack="sps",
            status=AttackStatus.SUCCESS,
            details={"reconstructed": circuit},
        )
        back = _round_trip(result)
        payload = back.details["reconstructed"]
        assert "__circuit__" in payload
        rebuilt = circuit_from_details(payload)
        assert check_equivalence(circuit, rebuilt).proved
        # And the marker itself is round-trip stable.
        assert _round_trip(back) == back

    def test_schema_version_guard(self):
        result = AttackResult(attack="x", status=AttackStatus.FAILED)
        payload = result.to_json_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            AttackResult.from_json_dict(payload)


class TestJsonifyDetails:
    def test_scalars_pass_through(self):
        assert jsonify_details(
            {"a": 1, "b": 0.5, "c": "s", "d": None, "e": True}
        ) == {"a": 1, "b": 0.5, "c": "s", "d": None, "e": True}

    def test_non_string_keys_become_strings(self):
        assert jsonify_details({1: "x"}) == {"1": "x"}

    def test_nan_and_inf_do_not_break_dumps(self):
        out = jsonify_details({"nan": float("nan"), "inf": float("inf")})
        json.dumps(out)

    def test_unknown_objects_fall_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonify_details(Opaque()) == "<opaque>"
