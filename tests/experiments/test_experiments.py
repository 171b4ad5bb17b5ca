"""Tests for the experiment harness (profiles, suite, runners, reports)."""

from __future__ import annotations

import pytest

from repro.experiments.profiles import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    TABLE1_PROFILES,
    CircuitProfile,
    Scale,
    h_for,
    scale_from_env,
)
from repro.experiments.report import (
    cactus_series,
    render_cactus,
    render_table,
    write_csv,
)
from repro.experiments.runner import run_benchmark_attack
from repro.experiments.suite import build_benchmark
from repro.attacks.results import AttackStatus


SMALL = Scale(circuits=2, max_keys=8, max_gates=120, time_limit=15.0)


class TestProfiles:
    def test_table1_has_twenty_circuits(self):
        assert len(TABLE1_PROFILES) == 20
        names = [p.name for p in TABLE1_PROFILES]
        assert "c432" in names and "des" in names

    def test_paper_key_cap(self):
        # Table I: key width = min(#inputs, 64) in the paper's setup.
        for profile in TABLE1_PROFILES:
            assert profile.key_width == min(profile.num_inputs, 64)

    def test_h_for(self):
        assert h_for("hd0", 64) == 0
        assert h_for("m/8", 64) == 8
        assert h_for("m/4", 64) == 16
        assert h_for("m/3", 64) == 21

    def test_scale_profiles_clipped(self):
        profiles = SMALL.profiles()
        assert [p.name for p in profiles] == ["ex1010", "apex4"]
        assert all(p.key_width <= 8 for p in profiles)
        assert all(p.num_gates <= 120 for p in profiles)
        assert all(p.num_inputs <= 64 and p.num_outputs <= 16 for p in profiles)

    def test_paper_scale_keeps_published_profiles(self):
        assert PAPER_SCALE.profiles() == list(TABLE1_PROFILES)
        assert PAPER_SCALE.time_limit == 1000.0

    def test_default_scale(self):
        assert DEFAULT_SCALE == Scale(
            circuits=8, max_keys=16, max_gates=400, time_limit=30.0
        )
        assert scale_from_env({}) == DEFAULT_SCALE
        assert scale_from_env({"REPRO_FULL": "0"}) == DEFAULT_SCALE

    def test_scale_from_env_overrides_fields(self):
        environ = {
            "REPRO_CIRCUITS": "2",
            "REPRO_MAX_KEYS": "8",
            "REPRO_MAX_GATES": "120",
            "REPRO_TIME_LIMIT": "15",
            "UNRELATED": "x",
        }
        assert scale_from_env(environ) == SMALL

    def test_full_scale_ignores_reductions_but_not_time_limit(self):
        environ = {"REPRO_FULL": "1", "REPRO_CIRCUITS": "2", "REPRO_MAX_KEYS": "8"}
        assert scale_from_env(environ) == PAPER_SCALE
        environ["REPRO_TIME_LIMIT"] = "20"
        assert scale_from_env(environ).time_limit == 20.0

    @pytest.mark.parametrize(
        "fields",
        [
            {"circuits": 0},
            {"circuits": 21},
            {"max_keys": 0},
            {"max_gates": -1},
            {"max_keys": None},
            {"time_limit": 0.0},
            {"time_limit": float("nan")},
        ],
    )
    def test_invalid_scale_rejected(self, fields):
        with pytest.raises(ValueError):
            Scale(**{**vars(SMALL), **fields})

    def test_profile_seed_deterministic(self):
        profile = CircuitProfile("x", 4, 2, 4, 30)
        assert profile.seed() == CircuitProfile("x", 9, 9, 9, 9).seed()


class TestSuite:
    def test_build_benchmark_is_locked_and_optimized(self):
        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "m/8")
        assert benchmark.h == profile.key_width // 8
        assert benchmark.locked.circuit.key_inputs
        assert benchmark.original.num_gates > 0
        assert benchmark.name == f"{profile.name}[m/8]"

    def test_correct_key_unlocks_suite_members(self):
        from repro.circuit.equivalence import check_equivalence

        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "hd0")
        unlocked = benchmark.locked.unlocked_with(
            benchmark.locked.reveal_correct_key()
        )
        assert check_equivalence(benchmark.original, unlocked).proved

    def test_originals_are_cached(self):
        profile = SMALL.profiles()[0]
        a = build_benchmark(profile, "hd0")
        b = build_benchmark(profile, "m/8")
        assert a.original is b.original


class TestRunners:
    def test_run_fall_solves_small_benchmark(self):
        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "m/8")
        record = run_benchmark_attack(
            benchmark, "fall", time_limit=30, with_oracle=True
        )
        assert record.attack == "fall"
        assert record.solved
        assert record.correct_key

    def test_run_fall_analyses_restriction(self):
        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "m/8")
        record = run_benchmark_attack(
            benchmark,
            "fall",
            time_limit=30,
            with_oracle=True,
            analyses=("distance2h",),
            attack_label="Distance2H",
        )
        assert record.attack == "Distance2H"

    def test_run_sat_attack_on_small_hd0(self):
        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "hd0")
        record = run_benchmark_attack(benchmark, "sat", time_limit=30)
        # With 8 keys the SAT attack can win; either way the record is
        # well-formed.
        assert record.status in (
            AttackStatus.SUCCESS,
            AttackStatus.TIMEOUT,
        )
        assert record.elapsed_seconds >= 0.0

    def test_run_key_confirmation(self):
        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "hd0")
        correct = benchmark.locked.reveal_correct_key()
        wrong = tuple(1 - b for b in correct)
        record = run_benchmark_attack(
            benchmark,
            "key-confirmation",
            time_limit=30,
            candidates=(wrong, correct),
        )
        assert record.solved
        assert record.correct_key

    def test_any_registered_attack_runs_through_the_suite(self):
        from repro.attacks.registry import attack_names

        profile = SMALL.profiles()[0]
        benchmark = build_benchmark(profile, "hd0")
        # The suite runner accepts every registered family uniformly —
        # no hardcoded wrappers to fall out of sync with the registry.
        for name in attack_names():
            if name == "key-confirmation":
                continue  # exercised above (needs a shortlist)
            record = run_benchmark_attack(benchmark, name, time_limit=10)
            assert isinstance(record.status, AttackStatus), name
            assert record.attack == name


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(("a", "bbb"), [(1, 2), (33, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_cactus_series_sorted(self):
        assert cactus_series([3.0, 1.0, 2.0]) == [
            (1.0, 1),
            (2.0, 2),
            (3.0, 3),
        ]

    def test_render_cactus_counts_solved(self):
        text = render_cactus(
            {"A": [1.0, 2.0], "B": [9.0]},
            time_limit=5.0,
            total=3,
            title="panel",
        )
        assert "A: 2/3 solved" in text
        assert "B: 0/3 solved" in text

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x", "y"), [(1, 2), (3, 4)])
        assert path.read_text() == "x,y\n1,2\n3,4\n"
