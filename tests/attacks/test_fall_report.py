"""Tests for FALL's stage bookkeeping and end-to-end properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import base
from repro.attacks.base import TelemetryRecorder
from repro.attacks.fall import pipeline
from repro.attacks.fall.pipeline import ANALYSIS_NAMES, FallReport, fall_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_sfll_hd, lock_ttlock


class TestReportBookkeeping:
    def test_stage_timings_recorded(self):
        locked = lock_ttlock(paper_example_circuit(), cube=(1, 0, 0, 1))
        telemetry = TelemetryRecorder()
        result = fall_attack(locked.circuit, h=0, telemetry=telemetry)
        report: FallReport = result.details["report"]
        assert list(telemetry.stages) == [
            "comparators", "support_match", "functional_analysis",
            "key_derivation",
        ]
        assert all(seconds >= 0.0 for seconds in telemetry.stages.values())
        ends = {
            event["stage"]: event for event in telemetry.events
            if event["kind"] == "stage_end"
        }
        assert ends["comparators"]["found"] == len(report.comparators)
        assert ends["support_match"]["candidates"] == len(
            report.candidate_nodes
        )
        assert ends["functional_analysis"]["analyses"] == (
            report.analyses_attempted
        )
        assert ends["functional_analysis"]["confirmed"] >= len(
            report.confirmed_cubes
        )
        assert ends["key_derivation"]["keys"] == len(report.candidate_keys)

    def test_comparator_pairing_recorded(self):
        locked = lock_ttlock(paper_example_circuit(), cube=(1, 0, 0, 1))
        result = fall_attack(locked.circuit, h=0)
        report = result.details["report"]
        assert report.pairing == dict(zip("abcd", locked.key_names))
        assert len(report.comparators) >= 4

    def test_scan_complete_flag(self):
        locked = lock_ttlock(paper_example_circuit(), cube=(1, 0, 0, 1))
        result = fall_attack(locked.circuit, h=0)
        assert result.details["report"].scan_complete

    def test_confirmed_cubes_subset_of_candidates(self):
        locked = lock_sfll_hd(paper_example_circuit(), h=1, cube=(1, 0, 0, 1))
        result = fall_attack(locked.circuit, h=1)
        report = result.details["report"]
        assert report.confirmed_cubes
        for cube in report.confirmed_cubes:
            assert set(cube) == set("abcd")

    def test_unknown_analysis_rejected(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(AttackError):
            fall_attack(locked.circuit, h=0, analyses=("magic",))

    def test_analysis_names_constant(self):
        assert set(ANALYSIS_NAMES) == {
            "unateness",
            "distance2h",
            "sliding_window",
        }

    def test_explicit_analyses_respected(self):
        locked = lock_sfll_hd(paper_example_circuit(), h=1, cube=(1, 0, 0, 1))
        # Unateness alone cannot break HD1.
        result = fall_attack(locked.circuit, h=1, analyses=("unateness",))
        assert result.status in (AttackStatus.FAILED, AttackStatus.TIMEOUT)
        # Either HD analysis alone can.
        for analysis in ("distance2h", "sliding_window"):
            result = fall_attack(locked.circuit, h=1, analyses=(analysis,))
            assert result.status is AttackStatus.SUCCESS, analysis


def _sfll_hd0_cell():
    original = generate_random_circuit("pf2", 16, 3, 90, seed=8)
    return lock_sfll_hd(original, h=0, key_width=16, seed=9)


def _sfll_hd2_cell():
    original = generate_random_circuit("m16", 20, 4, 150, seed=3)
    return lock_sfll_hd(original, h=2, key_width=16, seed=7)


HD0_KEY = (1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1)


class TestCandidateScan:
    """The scan's counters and outcome, recorded when every candidate's
    cone was still extracted; skipping the cones of candidates whose
    both polarities fail the density test must not move them."""

    @pytest.mark.parametrize(
        "make_cell, h, status, candidates, rejections, analyses, keys",
        [
            (_sfll_hd0_cell, 0, AttackStatus.MULTIPLE_CANDIDATES,
             117, 218, 12, [HD0_KEY, tuple(1 - bit for bit in HD0_KEY)]),
            (_sfll_hd2_cell, 2, AttackStatus.SUCCESS,
             112, 216, 9, [(0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0)]),
        ],
        ids=["sfll-hd0", "sfll-hd2"],
    )
    def test_scan_matches_recorded_values(
        self, monkeypatch, make_cell, h, status, candidates, rejections,
        analyses, keys,
    ):
        extracted: list[str] = []
        reached: set[str] = set()
        extract_cone = pipeline.extract_cone

        def spy_extract(circuit, node):
            extracted.append(node)
            return extract_cone(circuit, node)

        def spy_next_step(original):
            # The step after the density test: the sampled unateness
            # check (h = 0) or the functional analyses.
            def spy(variant, *args, **kwargs):
                output = variant.outputs[0]
                if output.startswith("fall_neg"):  # the complement
                    (output,) = variant.fanins(output)
                reached.add(output)
                return original(variant, *args, **kwargs)
            return spy

        monkeypatch.setattr(pipeline, "extract_cone", spy_extract)
        for name in ("passes_unateness_sim", "_analyze_candidate"):
            monkeypatch.setattr(
                pipeline, name, spy_next_step(getattr(pipeline, name))
            )
        result = fall_attack(make_cell().circuit, h=h)
        report = result.details["report"]
        assert result.status is status
        assert len(report.candidate_nodes) == candidates
        assert report.prefilter_rejections == rejections
        assert report.analyses_attempted == analyses
        assert report.candidate_keys == keys
        # A cone is extracted once, and only for a candidate with a
        # polarity that survives the density test.
        assert len(extracted) == len(set(extracted)) < candidates
        assert set(extracted) == reached

    def test_telemetry_keeps_stage_ends_past_the_event_cap(
        self, monkeypatch
    ):
        original = generate_random_circuit("pf", 12, 3, 80, seed=6)
        locked = lock_sfll_hd(original, h=1, key_width=10, seed=6)
        monkeypatch.setattr(base, "MAX_TELEMETRY_EVENTS", 16)
        telemetry = TelemetryRecorder()
        result = fall_attack(locked.circuit, h=1, telemetry=telemetry)
        report = result.details["report"]
        assert len(report.candidate_nodes) > 16
        assert telemetry.dropped_events == 0
        ends = {
            event["stage"]: event for event in telemetry.events
            if event["kind"] == "stage_end"
        }
        assert "key_derivation" in ends
        analysis_end = ends["functional_analysis"]
        assert analysis_end["prefilter_rejections"] == report.prefilter_rejections
        # One iteration per analysed candidate, indexed by density rank.
        ranks = [
            event["iteration"] for event in telemetry.events
            if event["kind"] == "iteration"
        ]
        assert telemetry.counters["iterations"] == len(ranks)
        assert 0 < len(ranks) <= report.analyses_attempted
        assert ranks == sorted(set(ranks))


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    h=st.integers(min_value=0, max_value=2),
)
def test_fall_end_to_end_property(seed, h):
    """Property: FALL + oracle defeats small SFLL-HDh instances.

    "Defeats" in the paper's sense: the recovered key (or some
    shortlisted key) unlocks the circuit exactly.
    """
    original = generate_random_circuit("e2e", 10, 3, 70, seed=seed)
    locked = lock_sfll_hd(original, h=h, key_width=8, seed=seed + 1)
    oracle = IOOracle(original)
    result = fall_attack(locked.circuit, h=h, oracle=oracle)
    assert result.status is AttackStatus.SUCCESS
    unlocked = locked.unlocked_with(result.key)
    assert check_equivalence(original, unlocked).proved
