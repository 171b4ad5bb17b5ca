"""End-to-end tests of the FALL attack pipeline (paper Figure 4)."""

from __future__ import annotations

import pytest

from repro.attacks.fall import pipeline
from repro.attacks.fall.pipeline import fall_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_sfll_hd, lock_ttlock
from repro.utils.bitops import complement_bits
from repro.utils.timer import Budget

PAPER_CUBE = (1, 0, 0, 1)


class TestPaperExample:
    """The paper's worked example: FALL defeats Figures 2b and 2c."""

    def test_ttlock_oracle_less(self):
        locked = lock_ttlock(paper_example_circuit(), cube=PAPER_CUBE)
        result = fall_attack(locked.circuit, h=0)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE
        assert result.details["report"].oracle_less
        assert result.oracle_queries == 0

    def test_sfll_hd1_oracle_less(self):
        locked = lock_sfll_hd(paper_example_circuit(), h=1, cube=PAPER_CUBE)
        result = fall_attack(locked.circuit, h=1)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE

    def test_unoptimized_netlists_also_fall(self):
        locked = lock_ttlock(
            paper_example_circuit(), cube=PAPER_CUBE, optimize_netlist=False
        )
        result = fall_attack(locked.circuit, h=0)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE

    def test_unoptimized_sfll_netlists_also_fall(self):
        locked = lock_sfll_hd(
            paper_example_circuit(), h=1, cube=PAPER_CUBE, optimize_netlist=False
        )
        result = fall_attack(locked.circuit, h=1)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == PAPER_CUBE

    @pytest.mark.parametrize("cube", [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)])
    def test_other_cubes(self, cube):
        locked = lock_ttlock(paper_example_circuit(), cube=cube)
        result = fall_attack(locked.circuit, h=0)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == cube


class TestMidSizeCircuits:
    def test_sfll_hd2_16_keys(self):
        original = generate_random_circuit("m16", 20, 4, 150, seed=3)
        locked = lock_sfll_hd(original, h=2, key_width=16, seed=7)
        oracle = IOOracle(original)
        result = fall_attack(locked.circuit, h=2, oracle=oracle)
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_ttlock_16_keys(self):
        original = generate_random_circuit("m16", 20, 4, 150, seed=3)
        locked = lock_ttlock(original, key_width=16, seed=8)
        oracle = IOOracle(original)
        result = fall_attack(locked.circuit, h=0, oracle=oracle)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == locked.reveal_correct_key()

    def test_recovered_key_unlocks(self):
        original = generate_random_circuit("m12", 14, 3, 100, seed=5)
        locked = lock_sfll_hd(original, h=1, key_width=12, seed=6)
        result = fall_attack(locked.circuit, h=1, oracle=IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved


class TestComplementShortlists:
    def test_hd0_popcount_msb_yields_complement_pair(self):
        # In an SFLL-HD0 netlist built from a popcount comparator, the
        # popcount MSB node ("all difference bits set") is a genuine
        # cube detector for the complement cube, so the oracle-less
        # stage shortlists {K, ¬K} — our reproduction of the paper's
        # complement-pair observation (§VI-B).
        original = generate_random_circuit("m8", 10, 3, 70, seed=2)
        locked = lock_sfll_hd(original, h=0, key_width=8, seed=3)
        result = fall_attack(locked.circuit, h=0)
        cube = locked.reveal_correct_key()
        assert result.status is AttackStatus.MULTIPLE_CANDIDATES
        assert cube in result.candidates
        assert complement_bits(cube) in result.candidates

    def test_complement_pair_resolved_by_confirmation(self):
        original = generate_random_circuit("m8", 10, 3, 70, seed=2)
        locked = lock_sfll_hd(original, h=0, key_width=8, seed=3)
        oracle = IOOracle(original)
        result = fall_attack(locked.circuit, h=0, oracle=oracle)
        assert result.status is AttackStatus.SUCCESS
        assert result.key == locked.reveal_correct_key()

    def test_phi_relative_confirmation_stays_approximate(self, monkeypatch):
        # A key that confirmation checked only against the shortlist is
        # not an exact SUCCESS, here as in key confirmation itself.
        original = generate_random_circuit("m8", 10, 3, 70, seed=2)
        locked = lock_sfll_hd(original, h=0, key_width=8, seed=3)

        def phi_relative(circuit, oracle, candidates, budget, telemetry):
            assert len(candidates) > 1
            return AttackResult(
                attack="key-confirmation",
                status=AttackStatus.SUCCESS,
                key=candidates[0],
                details={"verification": "phi-relative", "approximate": True},
            )

        monkeypatch.setattr(pipeline, "key_confirmation", phi_relative)
        result = fall_attack(locked.circuit, h=0, oracle=IOOracle(original))
        assert result.approximate
        assert result.details["verification"] == "phi-relative"

    def test_no_analysis_applies_at_half_m(self):
        # h = m/2 is outside every analysis' applicability window
        # (SlidingWindow needs h < ⌊m/2⌋, Distance2H needs 4h ≤ m), so
        # FALL must report failure rather than a wrong key.
        original = generate_random_circuit("m8", 10, 3, 70, seed=2)
        locked = lock_sfll_hd(original, h=4, key_width=8, seed=3)
        result = fall_attack(locked.circuit, h=4)
        assert result.status in (AttackStatus.FAILED, AttackStatus.TIMEOUT)


class TestFailureModes:
    def test_no_key_inputs_fails_cleanly(self):
        result = fall_attack(paper_example_circuit(), h=0)
        assert result.status is AttackStatus.FAILED

    def test_negative_h_rejected(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(AttackError):
            fall_attack(locked.circuit, h=-1)

    def test_expired_budget_times_out(self):
        locked = lock_sfll_hd(paper_example_circuit(), h=1, cube=PAPER_CUBE)
        result = fall_attack(locked.circuit, h=1, budget=Budget(0.0))
        assert result.status is AttackStatus.TIMEOUT

    def test_wrong_h_parameter_fails(self):
        # Adversary assumes the wrong locking parameter: the analyses
        # must refute every candidate rather than emit a wrong key.
        original = generate_random_circuit("w", 16, 3, 90, seed=4)
        locked = lock_sfll_hd(original, h=3, key_width=12, seed=4)
        result = fall_attack(locked.circuit, h=1, oracle=IOOracle(original))
        assert result.status in (AttackStatus.FAILED, AttackStatus.TIMEOUT)


class TestPrefilteredScan:
    """The density prefilter skips candidates without analysing them;
    on these cells the scan still recovers a key that unlocks the
    circuit, proved by CEC against the original."""

    @pytest.mark.parametrize(
        "circuit, h, key_width, seed",
        [(("pf", 12, 3, 80, 6), 1, 10, 6), (("pf2", 16, 3, 90, 8), 0, 16, 9)],
        ids=["sfll-hd1", "sfll-hd0"],
    )
    def test_recovers_a_key_cec_proves(self, circuit, h, key_width, seed):
        name, inputs, outputs, gates, circuit_seed = circuit
        original = generate_random_circuit(
            name, inputs, outputs, gates, seed=circuit_seed
        )
        locked = lock_sfll_hd(original, h=h, key_width=key_width, seed=seed)
        result = fall_attack(locked.circuit, h=h)
        assert result.details["report"].prefilter_rejections > 0
        keys = [result.key] if result.key is not None else result.candidates
        assert any(
            check_equivalence(original, locked.unlocked_with(key)).proved
            for key in keys
        )
