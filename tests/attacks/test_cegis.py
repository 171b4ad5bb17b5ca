"""Contract tests shared by the oracle-guided CEGIS attacks.

The SAT attack, AppSAT and Double DIP run one distinguishing-input loop
(``repro.attacks.cegis``), so its input checks, budget and iteration cap
are tested here once per family, the oracle check together with key
confirmation, which shares it. Family-specific behaviour stays in
``test_oracle_and_sat_attack.py`` and ``test_extension_attacks.py``.
"""

from __future__ import annotations

import pytest

from repro.attacks.base import AttackConfig, TelemetryRecorder
from repro.attacks.cegis import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.engine import run_attack
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_random_xor, lock_sarlock, lock_sfll_hd, lock_ttlock
from repro.sat.solver import Solver
from repro.utils.timer import Budget
from tests.circuits import c17


@pytest.mark.parametrize(
    "attack",
    [sat_attack, appsat_attack, double_dip_attack],
    ids=lambda attack: attack.__name__,
)
class TestCegisContract:
    def test_keyless_circuit_rejected(self, attack):
        original = paper_example_circuit()
        with pytest.raises(AttackError, match="no key inputs"):
            attack(original, IOOracle(original))

    def test_expired_budget_times_out(self, attack):
        original = paper_example_circuit()
        locked = lock_ttlock(original)
        oracle = IOOracle(original)
        result = attack(locked.circuit, oracle, budget=Budget(0.0))
        assert result.status is AttackStatus.TIMEOUT
        assert oracle.query_count == 0

    def test_zero_iteration_cap_times_out_without_queries(self, attack):
        original = paper_example_circuit()
        locked = lock_ttlock(original)
        oracle = IOOracle(original)
        result = attack(locked.circuit, oracle, max_iterations=0)
        assert result.status is AttackStatus.TIMEOUT
        assert result.iterations == 0
        assert result.oracle_queries == 0
        assert oracle.query_count == 0

    def test_records_encode_and_key_extraction_stages(self, attack):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        telemetry = TelemetryRecorder()
        result = attack(locked.circuit, IOOracle(original), telemetry=telemetry)
        assert result.succeeded
        assert {"encode", "key_extraction"} <= set(telemetry.stages)


@pytest.mark.parametrize(
    "name", ["sat", "appsat", "double-dip", "key-confirmation"]
)
def test_oracle_for_another_circuit_is_rejected(name):
    # Every oracle-guided family runs the same input check before it
    # encodes anything or queries the oracle.
    locked = lock_ttlock(paper_example_circuit())
    oracle = IOOracle(c17())
    config = AttackConfig(candidates=((0, 0, 0, 0),))
    with pytest.raises(
        AttackError, match="^oracle inputs do not match the locked netlist$"
    ):
        run_attack(name, locked.circuit, oracle, config)
    assert oracle.query_count == 0


@pytest.mark.parametrize(
    "name", ["sat", "appsat", "double-dip", "key-confirmation"]
)
def test_loaded_clauses_are_released(name, monkeypatch):
    # Each family's private Cnf is a staging buffer: once the solver has
    # loaded it, its clauses live only in the solver, and the two agree
    # on the variables.
    loaded: dict[int, tuple[Solver, object]] = {}
    add_cnf = Solver.add_cnf

    def recording_add_cnf(self, cnf):
        loaded[id(cnf)] = (self, cnf)
        add_cnf(self, cnf)

    monkeypatch.setattr(Solver, "add_cnf", recording_add_cnf)
    original = generate_random_circuit("released", 8, 2, 40, seed=1)
    locked = lock_random_xor(original, key_width=6, seed=1)
    oracle = IOOracle(original)
    if name == "key-confirmation":
        correct = locked.reveal_correct_key()
        wrong = tuple(1 - bit for bit in correct)
        result = key_confirmation(locked.circuit, oracle, [wrong, correct])
    else:
        attack = {
            "sat": sat_attack,
            "appsat": appsat_attack,
            "double-dip": double_dip_attack,
        }[name]
        result = attack(locked.circuit, oracle)
    assert result.status is AttackStatus.SUCCESS
    assert result.oracle_queries > 1
    assert len(loaded) >= 2
    for solver, cnf in loaded.values():
        assert cnf.clauses == []
        assert cnf.num_vars == solver.num_vars


def _search_fingerprint(result) -> tuple:
    """``(status, iterations, oracle_queries)`` and the conflicts,
    decisions and propagations of the main and the key solver."""
    return (
        result.status.value, result.iterations, result.oracle_queries,
        *(
            result.details[solver][counter]
            for solver in ("solver", "key_solver")
            for counter in ("conflicts", "decisions", "propagations")
        ),
    )


def _rand10_sarlock_sat():
    original = generate_random_circuit("corpus10", 10, 3, 70, seed=31)
    locked = lock_sarlock(original, key_width=8, seed=9)
    return sat_attack(locked.circuit, IOOracle(original), max_iterations=40)


def _rand14_sfll_hd2_appsat():
    # One validation round (iteration 4) feeds back 2 disagreements.
    original = generate_random_circuit("corpus14", 14, 4, 110, seed=21)
    locked = lock_sfll_hd(original, h=2, key_width=12, seed=7)
    return appsat_attack(locked.circuit, IOOracle(original), max_iterations=40)


def _paper_ttlock(attack):
    def run():
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        return attack(locked.circuit, IOOracle(original))
    return run


@pytest.mark.parametrize(
    "run, expected",
    [
        (_rand10_sarlock_sat,
         ("timeout", 40, 40, 64, 855, 53315, 0, 0, 40)),
        (_paper_ttlock(double_dip_attack),
         ("success", 0, 0, 35, 36, 3673, 0, 4, 4)),
        (_paper_ttlock(sat_attack),
         ("success", 3, 3, 15, 43, 1107, 0, 0, 13)),
        (_rand14_sfll_hd2_appsat,
         ("success", 7, 71, 1717, 3194, 504314, 28, 79, 4678)),
    ],
    ids=[
        "sat-rand10-sarlock", "double-dip-paper-ttlock", "sat-paper-ttlock",
        "appsat-rand14-sfll-hd2",
    ],
)
def test_search_fingerprint(run, expected):
    # The exact search of corpus cells (tests/attacks/test_e2e_corpus.py).
    # A change to the cofactor encoder or the solver that renumbers a
    # variable, reorders a clause or moves a decision moves these
    # counts; one that only makes the loop faster leaves them as they
    # are. A deliberate change to the search re-records them.
    assert _search_fingerprint(run()) == expected
