"""Registry uniformity: every family behaves behind the one interface.

The one-key-premise critique (Hu et al.) argues attack comparisons are
only meaningful under uniform success criteria; these are the property
tests enforcing the mechanical half of that: every registered attack,
run through the engine on a tiny seeded corpus, must return a
well-formed :class:`AttackResult` — consistent ``key_names``, monotone
non-negative ``oracle_queries``, non-negative timings, JSON-safe
details under the shared telemetry schema — and must respect the
``AttackConfig`` budget.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.attacks.base import AttackConfig
from repro.attacks.engine import run_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import attack_names, get_attack
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_sfll_hd, lock_ttlock

# Small enough that every family (including the SAT-attack CEGIS loops)
# terminates in well under a second per cell.
_CORPUS_SPECS = (
    ("paper-ttlock", 0),
    ("paper-sfll1", 1),
    ("rand-ttlock", 0),
)


@lru_cache(maxsize=None)
def _cell(name):
    if name == "paper-ttlock":
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
    elif name == "paper-sfll1":
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))
    else:
        original = generate_random_circuit("regcorpus", 8, 3, 60, seed=13)
        locked = lock_ttlock(original, key_width=6, seed=3)
    return original, locked


def _config(locked, h, **overrides):
    # A two-entry shortlist keeps key-confirmation applicable on every
    # cell without revealing the defender's key to the test's attacks.
    width = len(locked.key_names)
    shortlist = (tuple([0] * width), tuple([1] + [0] * (width - 1)))
    defaults = dict(
        h=h,
        time_limit=30.0,
        seed=0,
        candidates=shortlist,
    )
    defaults.update(overrides)
    return AttackConfig(**defaults)


class TestRegistryResolution:
    def test_all_eight_families_registered(self):
        assert set(attack_names()) == {
            "fall",
            "sat",
            "appsat",
            "double-dip",
            "sps",
            "key-confirmation",
            "guess",
            "indcpa",
        }

    def test_unknown_name_lists_valid_choices(self):
        with pytest.raises(AttackError) as excinfo:
            get_attack("stat")
        message = str(excinfo.value)
        assert "stat" in message
        for name in attack_names():
            assert name in message

    def test_descriptions_and_names_populated(self):
        for name in attack_names():
            attack = get_attack(name)
            assert attack.name == name
            assert attack.description


@pytest.mark.parametrize("attack", attack_names())
@pytest.mark.parametrize("cell_name,h", _CORPUS_SPECS,
                         ids=[spec[0] for spec in _CORPUS_SPECS])
class TestUniformResults:
    """The well-formedness property, over (attack family × corpus cell)."""

    def test_well_formed_result(self, attack, cell_name, h):
        original, locked = _cell(cell_name)
        oracle = IOOracle(original)
        result = run_attack(
            attack, locked.circuit, oracle, _config(locked, h)
        )

        # Uniform identification and status typing.
        assert isinstance(result, AttackResult)
        assert result.attack == attack
        assert isinstance(result.status, AttackStatus)

        # Consistent key_names: always the locked netlist's key inputs,
        # and any recovered key/candidates align with them.
        assert result.key_names == locked.circuit.key_inputs
        if result.key is not None:
            assert len(result.key) == len(result.key_names)
            assert set(result.key) <= {0, 1}
            assert result.key_as_assignment()  # does not raise
        for candidate in result.candidates:
            assert len(candidate) == len(result.key_names)

        # Monotone, consistent oracle accounting: the result's counter
        # equals what the oracle actually saw, and is never negative.
        assert 0 <= result.oracle_queries == oracle.query_count
        assert result.iterations >= 0

        # Non-negative timings, including every telemetry stage.
        assert result.elapsed_seconds >= 0.0
        telemetry = result.details["telemetry"]
        assert telemetry["schema"] == 1
        assert all(seconds >= 0.0 for seconds in telemetry["stages"].values())
        assert telemetry["counters"]["oracle_queries"] == result.oracle_queries
        for event in telemetry["events"]:
            assert event["t"] >= 0.0
            assert isinstance(event["kind"], str)

        # Engine results are JSON-safe end to end.
        json.dumps(result.to_json_dict())
        assert AttackResult.from_json(result.to_json()) == result

    def test_respects_budget(self, attack, cell_name, h):
        """An expired budget must stop the attack almost immediately."""
        original, locked = _cell(cell_name)
        result = run_attack(
            attack,
            locked.circuit,
            IOOracle(original),
            _config(locked, h, time_limit=0.0),
        )
        assert isinstance(result.status, AttackStatus)
        # Cheap single-pass analyses may still conclude; iterative loops
        # must report TIMEOUT without burning oracle queries. Either
        # way the run cannot have taken meaningful wall-clock time.
        assert result.elapsed_seconds < 5.0
        if result.status is AttackStatus.TIMEOUT:
            assert result.oracle_queries <= 1


class TestApplicability:
    def test_oracle_requirement_reported_uniformly(self):
        original, locked = _cell("paper-ttlock")
        for name in ("sat", "appsat", "double-dip", "key-confirmation"):
            result = run_attack(
                name, locked.circuit, None, _config(locked, 0)
            )
            assert result.status is AttackStatus.NOT_APPLICABLE, name
            assert "oracle" in result.details["reason"], name

    def test_key_confirmation_needs_a_shortlist(self):
        original, locked = _cell("paper-ttlock")
        result = run_attack(
            "key-confirmation",
            locked.circuit,
            IOOracle(original),
            AttackConfig(time_limit=5.0),
        )
        assert result.status is AttackStatus.NOT_APPLICABLE
        assert "shortlist" in result.details["reason"]

    def test_keyless_circuit_not_applicable(self):
        original, _ = _cell("paper-ttlock")
        result = run_attack(
            "sat", original, IOOracle(original), AttackConfig(time_limit=5.0)
        )
        assert result.status is AttackStatus.NOT_APPLICABLE
        assert "key inputs" in result.details["reason"]
