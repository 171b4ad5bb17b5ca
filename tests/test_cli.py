"""Tests for the command-line entry points."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

import repro
from repro.circuit.bench_io import read_bench, save_bench
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.cli import main_attack, main_experiments, main_lock


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "design.bench"
    save_bench(paper_example_circuit(), path)
    return path


class TestLockCommand:
    def test_lock_sfll_roundtrip(self, bench_file, tmp_path, capsys):
        out = tmp_path / "locked.bench"
        key_file = tmp_path / "key.txt"
        code = main_lock(
            [
                str(bench_file),
                str(out),
                "--scheme",
                "sfll",
                "--h",
                "1",
                "--key-file",
                str(key_file),
            ]
        )
        assert code == 0
        locked = read_bench(out)
        assert locked.key_inputs
        key_text = key_file.read_text().strip()
        assert set(key_text) <= {"0", "1"}
        captured = capsys.readouterr().out
        assert "correct_key=" in captured

    @pytest.mark.parametrize("scheme", ["ttlock", "rll", "sarlock", "antisat"])
    def test_all_schemes_produce_valid_netlists(
        self, bench_file, tmp_path, scheme
    ):
        out = tmp_path / f"{scheme}.bench"
        args = [str(bench_file), str(out), "--scheme", scheme]
        if scheme == "rll":
            args += ["--keys", "3"]
        assert main_lock(args) == 0
        locked = read_bench(out)
        locked.validate()
        assert locked.key_inputs

    def test_correct_key_unlocks(self, bench_file, tmp_path, capsys):
        out = tmp_path / "locked.bench"
        key_file = tmp_path / "key.txt"
        main_lock(
            [str(bench_file), str(out), "--scheme", "ttlock",
             "--key-file", str(key_file)]
        )
        locked = read_bench(out)
        key = [int(ch) for ch in key_file.read_text().strip()]
        from repro.locking.base import apply_key

        unlocked = apply_key(locked, dict(zip(locked.key_inputs, key)))
        assert check_equivalence(paper_example_circuit(), unlocked).proved


class TestAttackCommand:
    def test_fall_attack_end_to_end(self, bench_file, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        key_file = tmp_path / "key.txt"
        main_lock(
            [str(bench_file), str(locked_path), "--scheme", "sfll",
             "--h", "1", "--key-file", str(key_file)]
        )
        capsys.readouterr()
        code = main_attack(
            [str(locked_path), "--h", "1", "--oracle", str(bench_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "key:" in out
        recovered = out.split("key:")[1].strip().split()[0]
        assert recovered == key_file.read_text().strip()

    def test_sat_attack_requires_oracle(self, bench_file, tmp_path):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        with pytest.raises(SystemExit):
            main_attack([str(locked_path), "--attack", "sat"])

    def test_sat_attack_end_to_end(self, bench_file, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        code = main_attack(
            [str(locked_path), "--attack", "sat", "--oracle", str(bench_file)]
        )
        assert code == 0
        assert "key:" in capsys.readouterr().out

    def test_every_registered_attack_is_accepted(
        self, bench_file, tmp_path, capsys
    ):
        from repro.attacks.registry import attack_names

        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        for name in attack_names():
            if name == "key-confirmation":
                continue  # needs a shortlist, which the CLI cannot guess
            code = main_attack(
                [
                    str(locked_path),
                    "--attack", name,
                    "--oracle", str(bench_file),
                    "--time-limit", "30",
                ]
            )
            out = capsys.readouterr().out
            assert code in (0, 1), (name, out)
            assert f"{name}:" in out, (name, out)

    def test_unknown_attack_errors_with_the_registered_list(
        self, bench_file, tmp_path, capsys
    ):
        from repro.attacks.registry import attack_names

        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--attack", "stat"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown attack 'stat'" in err
        for name in attack_names():
            assert name in err

    def test_list_attacks_needs_no_netlist(self, capsys):
        from repro.attacks.registry import attack_names

        code = main_attack(["--list-attacks"])
        assert code == 0
        out = capsys.readouterr().out
        for name in attack_names():
            assert name in out

    def test_missing_netlist_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_attack(["--attack", "fall"])
        assert excinfo.value.code == 2
        assert "netlist" in capsys.readouterr().err

    def test_portfolio_end_to_end(self, bench_file, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        key_file = tmp_path / "key.txt"
        main_lock(
            [str(bench_file), str(locked_path), "--scheme", "ttlock",
             "--key-file", str(key_file)]
        )
        capsys.readouterr()
        code = main_attack(
            [
                str(locked_path),
                "--portfolio", "fall,sat",
                "--oracle", str(bench_file),
                "--time-limit", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "portfolio winner:" in out
        recovered = out.split("key:")[1].strip().split()[0]
        assert recovered == key_file.read_text().strip()

    def test_portfolio_rejects_unknown_member(
        self, bench_file, tmp_path, capsys
    ):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--portfolio", "fall,nope"])
        assert excinfo.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_portfolio_rejects_duplicate_member(
        self, bench_file, tmp_path, capsys
    ):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--portfolio", "fall,fall"])
        assert excinfo.value.code == 2
        assert "twice" in capsys.readouterr().err

    def test_checkpoint_resume_through_the_cli(
        self, bench_file, tmp_path, capsys
    ):
        locked_path = tmp_path / "locked.bench"
        ckpt = tmp_path / "sat.ckpt.json"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        # Interrupt via an iteration cap, then resume to completion.
        code = main_attack(
            [
                str(locked_path), "--attack", "sat",
                "--oracle", str(bench_file),
                "--checkpoint", str(ckpt),
                "--max-iterations", "1",
            ]
        )
        assert code == 1  # timed out on purpose
        assert ckpt.exists()
        capsys.readouterr()
        code = main_attack(
            [
                str(locked_path), "--attack", "sat",
                "--oracle", str(bench_file),
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert "key:" in capsys.readouterr().out

    def test_checkpoint_with_portfolio_is_a_usage_error(
        self, bench_file, tmp_path, capsys
    ):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main_attack(
                [str(locked_path), "--portfolio", "--checkpoint", "x.json"]
            )
        assert excinfo.value.code == 2


class TestJobsFlag:
    """--jobs parsing on the attack + experiment CLIs."""

    @pytest.fixture
    def locked_file(self, bench_file, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        main_lock(
            [str(bench_file), str(locked_path), "--scheme", "ttlock"]
        )
        capsys.readouterr()
        return locked_path

    def test_experiments_jobs_reaches_run_suite(self, monkeypatch, capsys):
        from repro.experiments import summary

        seen = []

        def fake_run_suite(tasks, jobs=None):
            seen.append(jobs)
            return []

        monkeypatch.setattr(summary, "run_suite", fake_run_suite)
        environ = dict(os.environ)
        assert main_experiments(["summary", "--jobs", "2"]) == 0
        assert seen == [2]
        assert dict(os.environ) == environ

    def test_portfolio_jobs_reaches_the_config(
        self, locked_file, bench_file, monkeypatch, capsys
    ):
        from repro import cli
        from repro.attacks.engine import run_attack

        seen = []

        def fake_run_portfolio(names, locked, oracle, config):
            seen.append(config.jobs)
            result = run_attack("sat", locked, oracle, config)
            result.details["portfolio"] = {
                "winner": "sat",
                "attacks": {name: {"status": "skipped"} for name in names},
            }
            return result

        monkeypatch.setattr(cli, "run_portfolio", fake_run_portfolio)
        environ = dict(os.environ)
        assert main_attack(
            [str(locked_file), "--portfolio", "sat,appsat",
             "--oracle", str(bench_file), "--jobs", "2"]
        ) == 0
        assert seen == [2]
        assert dict(os.environ) == environ

    def test_jobs_auto_accepted(
        self, locked_file, bench_file, capsys
    ):
        assert main_attack(
            [str(locked_file), "--oracle", str(bench_file),
             "--jobs", "auto"]
        ) == 0

    @pytest.mark.parametrize("bad", ["0", "-2", "banana", "1.5"])
    def test_invalid_jobs_flag_is_a_usage_error(
        self, locked_file, bad, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_file), "--jobs", bad])
        assert excinfo.value.code == 2
        assert "jobs" in capsys.readouterr().err

    def test_experiments_parser_validates_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_experiments(["summary", "--jobs", "zero"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("main", [main_attack, main_experiments])
    def test_help_documents_jobs(self, main, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "auto" in out


class TestExperimentsScale:
    """The REPRO_* scale variables, read only at the fall-experiments edge."""

    SCALE_VARIABLES = (
        "REPRO_FULL",
        "REPRO_CIRCUITS",
        "REPRO_MAX_KEYS",
        "REPRO_MAX_GATES",
        "REPRO_TIME_LIMIT",
    )

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for name in self.SCALE_VARIABLES:
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_CIRCUITS", "-1"),
            ("REPRO_CIRCUITS", "0"),
            ("REPRO_CIRCUITS", "21"),
            ("REPRO_CIRCUITS", "two"),
            ("REPRO_MAX_KEYS", "0"),
            ("REPRO_MAX_KEYS", "1.5"),
            ("REPRO_MAX_GATES", "-5"),
            ("REPRO_TIME_LIMIT", "soon"),
            ("REPRO_TIME_LIMIT", "0"),
            ("REPRO_FULL", "yes"),
        ],
    )
    def test_invalid_value_is_a_usage_error(
        self, variable, value, monkeypatch, capsys
    ):
        monkeypatch.setenv(variable, value)
        with pytest.raises(SystemExit) as excinfo:
            main_experiments(["table1"])
        assert excinfo.value.code == 2
        assert variable in capsys.readouterr().err

    def test_variables_reach_the_artifact(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CIRCUITS", "1")
        monkeypatch.setenv("REPRO_MAX_KEYS", "6")
        monkeypatch.setenv("REPRO_MAX_GATES", "80")
        assert main_experiments(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ex1010" in out and "apex4" not in out

    def test_only_the_cli_reads_the_environment(self):
        src = Path(repro.__file__).parent
        readers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if re.search(r"os\.environ|getenv", path.read_text())
        )
        assert readers == ["cli.py"]
