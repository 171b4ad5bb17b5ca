"""Seeded end-to-end attack regression corpus.

A fixed grid of (circuit, defense) cells, each locked with deterministic
seeds, attacked with the full FALL pipeline plus the SAT-attack and
AppSAT baselines — all driven through the unified engine
(:func:`repro.attacks.engine.run_attack`), so the corpus also pins the
registry adapters and the engine's lifecycle normalization. Every cell
pins the attack *outcome* — status, recovered-key correctness, and an
oracle query-count budget — so a regression anywhere in the stack
(locking, simulation, SAT solving, the attack pipelines, the
engine) shows up as a changed outcome rather than a silent behavior
drift.

The budgets encode the paper's qualitative story too: FALL defeats
TTLock/SFLL-HD oracle-less (0 queries), the SAT attack needs ~2^k
oracle queries against the point-function schemes (SARLock, Anti-SAT),
and AppSAT escapes them early with an approximately-correct key. The
SPS removal attack is judged by CEC on its reconstructed netlist, and
a capped Double DIP run pins its iteration accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.attacks.base import AttackConfig
from repro.attacks.engine import run_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus, circuit_from_details
from repro.circuit.compiled import compile_circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import exhaustive_input_values
from repro.locking import (
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)

_TIME_LIMIT = 60.0


@dataclass(frozen=True)
class CorpusCell:
    """One (circuit, defense) cell and its pinned outcomes."""

    circuit: str
    scheme: str
    h: int
    # FALL: status, max oracle queries (0 = the oracle-less headline).
    fall_status: AttackStatus
    fall_max_queries: int
    # SAT attack: always recovers an exact key; query-count budget.
    sat_min_queries: int
    sat_max_queries: int
    # AppSAT: max queries, the expected approximate-acceptance flag and
    # the tolerated error fraction of the recovered key.
    appsat_max_queries: int
    appsat_approximate: bool
    appsat_max_error: float

    @property
    def label(self) -> str:
        return f"{self.circuit}/{self.scheme}"


# Pinned from seeded runs; budgets carry slack over the observed counts
# (e.g. SAT on rand14/ttlock observed 369 queries, budget 600) so they
# catch order-of-magnitude regressions without being flaky, while the
# sarlock/antisat *lower* bounds pin the ~2^k point-function resistance.
CORPUS = (
    CorpusCell("paper", "ttlock", 0, AttackStatus.SUCCESS, 0,
               1, 16, 16, False, 0.0),
    CorpusCell("paper", "sfll_hd1", 1, AttackStatus.SUCCESS, 0,
               1, 16, 150, True, 0.02),
    CorpusCell("rand14", "ttlock", 0, AttackStatus.SUCCESS, 0,
               64, 600, 150, True, 0.02),
    CorpusCell("rand14", "sfll_hd1", 1, AttackStatus.SUCCESS, 0,
               8, 120, 150, True, 0.02),
    CorpusCell("rand14", "sfll_hd2", 2, AttackStatus.SUCCESS, 0,
               4, 80, 160, False, 0.0),
    CorpusCell("rand10", "rll", 0, AttackStatus.FAILED, 0,
               1, 16, 150, True, 0.02),
    CorpusCell("rand10", "sarlock", 0, AttackStatus.FAILED, 0,
               200, 320, 150, True, 0.02),
    CorpusCell("rand10", "antisat", 0, AttackStatus.FAILED, 0,
               200, 320, 150, True, 0.02),
)

_CELL_IDS = [cell.label for cell in CORPUS]
_CELLS = {cell.label: cell for cell in CORPUS}

# SPS: whether CEC proves the reconstructed netlist equivalent to the
# original (None: SPS finds no skewed node and reconstructs nothing).
# SPS removes SARLock's flip signal, but on TTLock and SFLL-HD1 the
# node it forces is not the flip signal, so the reconstruction is wrong
# although SPS reports SUCCESS ("breaks Anti-SAT but not SFLL-HDh").
SPS_EQUIVALENT = (
    ("paper/ttlock", None),
    ("rand14/ttlock", False),
    ("rand14/sfll_hd1", False),
    ("rand10/sarlock", True),
)


@lru_cache(maxsize=None)
def _original(name):
    if name == "paper":
        return paper_example_circuit()
    if name == "rand14":
        return generate_random_circuit("corpus14", 14, 4, 110, seed=21)
    if name == "rand10":
        return generate_random_circuit("corpus10", 10, 3, 70, seed=31)
    raise AssertionError(name)


@lru_cache(maxsize=None)
def _locked(circuit_name, scheme):
    original = _original(circuit_name)
    if scheme == "ttlock":
        if circuit_name == "paper":
            return lock_ttlock(original, cube=(1, 0, 0, 1))
        return lock_ttlock(original, key_width=10, seed=5)
    if scheme == "sfll_hd1":
        if circuit_name == "paper":
            return lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))
        return lock_sfll_hd(original, h=1, key_width=10, seed=6)
    if scheme == "sfll_hd2":
        return lock_sfll_hd(original, h=2, key_width=12, seed=7)
    if scheme == "rll":
        return lock_random_xor(original, key_width=6, seed=8)
    if scheme == "sarlock":
        return lock_sarlock(original, key_width=8, seed=9)
    if scheme == "antisat":
        return lock_antisat(original, key_width=8, seed=10)
    raise AssertionError(scheme)


def _key_unlocks_exactly(cell: CorpusCell, key) -> bool:
    original = _original(cell.circuit)
    unlocked = _locked(cell.circuit, cell.scheme).unlocked_with(key)
    return bool(check_equivalence(original, unlocked).proved)


def _key_error_fraction(cell: CorpusCell, key) -> float:
    """Fraction of input patterns with any wrong output under ``key``."""
    original = _original(cell.circuit)
    unlocked = _locked(cell.circuit, cell.scheme).unlocked_with(key)
    values, width = exhaustive_input_values(original.inputs)
    want = compile_circuit(original).eval_outputs_sliced(values, width=width)
    got = compile_circuit(unlocked).eval_outputs_sliced(values, width=width)
    wrong = 0
    for expected, actual in zip(want, got):
        wrong |= expected ^ actual
    return wrong.bit_count() / width


def _engine_run(cell: CorpusCell, attack: str, **config_kwargs):
    """One corpus cell through the unified engine, telemetry checked."""
    oracle = IOOracle(_original(cell.circuit))
    result = run_attack(
        attack,
        _locked(cell.circuit, cell.scheme).circuit,
        oracle,
        AttackConfig(time_limit=_TIME_LIMIT, **config_kwargs),
    )
    # Engine invariants every corpus run re-checks: registry labelling,
    # the uniform telemetry schema, and oracle-query accounting.
    assert result.attack == attack, cell.label
    telemetry = result.details["telemetry"]
    assert telemetry["schema"] == 1, cell.label
    assert telemetry["counters"]["oracle_queries"] == result.oracle_queries
    assert result.oracle_queries == oracle.query_count, cell.label
    return result


@pytest.mark.parametrize("cell", CORPUS, ids=_CELL_IDS)
class TestFallPipeline:
    def test_outcome_and_query_budget(self, cell):
        result = _engine_run(cell, "fall", h=cell.h)
        assert result.status is cell.fall_status, cell.label
        assert result.oracle_queries <= cell.fall_max_queries, cell.label
        if cell.fall_status is AttackStatus.SUCCESS:
            assert _key_unlocks_exactly(cell, result.key), cell.label
            # 0-query successes are the paper's oracle-less headline.
            if cell.fall_max_queries == 0:
                assert result.details["report"]["oracle_less"], cell.label
        else:
            assert result.key is None, cell.label


@pytest.mark.parametrize("cell", CORPUS, ids=_CELL_IDS)
class TestSatAttackBaseline:
    def test_exact_key_within_query_budget(self, cell):
        result = _engine_run(cell, "sat")
        assert result.status is AttackStatus.SUCCESS, cell.label
        assert _key_unlocks_exactly(cell, result.key), cell.label
        assert (
            cell.sat_min_queries
            <= result.oracle_queries
            <= cell.sat_max_queries
        ), f"{cell.label}: {result.oracle_queries} queries"


@pytest.mark.parametrize("cell", CORPUS, ids=_CELL_IDS)
class TestAppSatBaseline:
    def test_approximate_acceptance_and_error(self, cell):
        result = _engine_run(cell, "appsat", max_iterations=200)
        assert result.status is AttackStatus.SUCCESS, cell.label
        assert result.oracle_queries <= cell.appsat_max_queries, cell.label
        assert (
            result.details["approximate"] is cell.appsat_approximate
        ), cell.label
        if cell.appsat_max_error == 0.0:
            assert _key_unlocks_exactly(cell, result.key), cell.label
        else:
            error = _key_error_fraction(cell, result.key)
            assert error <= cell.appsat_max_error, (
                f"{cell.label}: approximate key error rate {error:.4f}"
            )


@pytest.mark.parametrize(
    "label,equivalent", SPS_EQUIVALENT, ids=[c[0] for c in SPS_EQUIVALENT]
)
class TestSpsRemoval:
    def test_reconstruction_checked_by_cec(self, label, equivalent):
        cell = _CELLS[label]
        result = _engine_run(cell, "sps")
        assert result.oracle_queries == 0, label
        reconstructed = result.details.get("reconstructed")
        if equivalent is None:
            assert result.status is AttackStatus.FAILED, label
            assert reconstructed is None, label
            return
        verdict = check_equivalence(
            _original(cell.circuit), circuit_from_details(reconstructed)
        )
        if equivalent:
            assert result.status is AttackStatus.SUCCESS, label
            assert verdict.proved, label
        else:
            # SPS's own status is not pinned here: it claims SUCCESS.
            assert verdict.refuted, label


class TestDoubleDipCap:
    def test_capped_run_times_out_after_one_query_per_iteration(self):
        # Double DIP needs 172 distinguishing inputs on this cell; a cap
        # of 40 iterations must stop it with exactly 40 oracle queries.
        result = _engine_run(
            _CELLS["rand14/sfll_hd1"], "double-dip", max_iterations=40
        )
        assert result.status is AttackStatus.TIMEOUT
        assert result.iterations == 40
        assert result.oracle_queries == 40
        assert result.key is None
