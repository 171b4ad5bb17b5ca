"""Tests for the command-line entry points."""

from __future__ import annotations

import argparse
import os
import re
from pathlib import Path

import pytest

import repro
from repro.circuit.bench_io import read_bench, save_bench
from repro.circuit.equivalence import check_equivalence
from repro.circuit.library import paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.cli import _jobs, main_attack, main_experiments, main_lock
from repro.locking import lock_ttlock


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

    @pytest.mark.parametrize(
        "args,reason",
        [
            pytest.param(["--attack", "sat"], "sat requires an I/O oracle",
                         id="sat-without-oracle"),
            pytest.param(["--attack", "key-confirmation", "--oracle", None],
                         "needs a candidate shortlist",
                         id="key-confirmation-without-shortlist"),
        ],
    )
    def test_not_applicable_is_a_usage_error_with_its_reason(
        self, bench_file, tmp_path, capsys, args, reason
    ):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "ttlock"])
        capsys.readouterr()
        args = [str(bench_file) if arg is None else arg for arg in args]
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), *args])
        assert excinfo.value.code == 2
        assert reason in capsys.readouterr().err

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
        assert len(out.splitlines()) == len(attack_names()) == 7
        for name in attack_names():
            assert name in out
        (line,) = [
            line for line in out.splitlines()
            if line.startswith("key-confirmation ")
        ]
        assert "shortlist" in line and "library only" in line

    def test_indcpa_is_not_an_attack(self, bench_file, tmp_path, capsys):
        """The §VI-D game never reads its input netlist, so it is not
        offered as an attack on one."""
        locked_path = tmp_path / "locked.bench"
        main_lock([str(bench_file), str(locked_path), "--scheme", "rll",
                   "--keys", "3"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--attack", "indcpa"])
        assert excinfo.value.code == 2
        assert "unknown attack 'indcpa'" in capsys.readouterr().err

    def test_double_dip_key_is_marked_approximate(
        self, bench_file, tmp_path, capsys
    ):
        """Double DIP returns key 0000 on paper/ttlock after no queries;
        the key is wrong, and the printed summary says it is unchecked."""
        locked_path = tmp_path / "locked.bench"
        locked = lock_ttlock(paper_example_circuit(), cube=(1, 0, 0, 1))
        save_bench(locked.circuit, locked_path)
        code = main_attack(
            [str(locked_path), "--attack", "double-dip",
             "--oracle", str(bench_file)]
        )
        assert code == 0
        assert "double-dip: success (approximate)" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "family", ["fall", "guess", "sps", "key-confirmation"]
    )
    def test_checkpoint_of_unresumable_family_is_a_usage_error(
        self, tmp_path, capsys, family
    ):
        # Raised before the netlist is read: the path does not exist.
        ckpt = tmp_path / "ck.json"
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(tmp_path / "missing.bench"), "--attack", family,
                         "--h", "1", "--checkpoint", str(ckpt)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{family} cannot be checkpointed" in err
        assert "sat, appsat, double-dip" in err
        assert not ckpt.exists()


class TestInputErrors:
    """Out-of-range flags and inputs the locker or the engine rejects are
    usage errors: exit 2 with the reason, never a traceback or a
    substituted value."""

    @pytest.fixture
    def wide_bench(self, tmp_path):
        path = tmp_path / "wide.bench"
        save_bench(generate_random_circuit("w", 12, 3, 60, seed=1), path)
        return path

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--scheme", "rll", "--keys", "0"], "argument --keys:"),
            (["--h", "-1"], "argument --h:"),
            (["--h", "9", "--keys", "8"], "h=9"),
            (["--keys", "99"], "key width 99"),
        ],
        ids=["rll-zero-keys", "negative-h", "h-above-key-width", "too-many-keys"],
    )
    def test_lock(self, wide_bench, tmp_path, capsys, args, message):
        out = tmp_path / "locked.bench"
        with pytest.raises(SystemExit) as excinfo:
            main_lock([str(wide_bench), str(out), *args])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["output", "key-file"])
    def test_unwritable_lock_output_is_a_usage_error(
        self, wide_bench, tmp_path, capsys, which
    ):
        out = tmp_path / "locked.bench"
        bad = tmp_path / "missing" / "x"
        argv = [str(wide_bench), str(out), "--key-file", str(tmp_path / "k")]
        argv[1 if which == "output" else 3] = str(bad)
        with pytest.raises(SystemExit) as excinfo:
            main_lock(argv)
        assert excinfo.value.code == 2
        assert f"cannot write {bad}" in capsys.readouterr().err
        # Nothing was written: not the netlist without its key, and no
        # probe file left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.bench"]

    def test_unwritable_checkpoint_is_a_usage_error_before_any_query(
        self, wide_bench, tmp_path, capsys, monkeypatch
    ):
        from repro.attacks.oracle import IOOracle

        locked_path = tmp_path / "locked.bench"
        main_lock([str(wide_bench), str(locked_path), "--h", "1"])
        capsys.readouterr()

        def no_query(*args, **kwargs):
            raise AssertionError("the oracle was queried")

        monkeypatch.setattr(IOOracle, "query", no_query)
        bad = tmp_path / "missing" / "ck.json"
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--attack", "sat",
                         "--oracle", str(wide_bench),
                         "--checkpoint", str(bad)])
        assert excinfo.value.code == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--h", "-1"], "argument --h:"),
            (["--time-limit", "-1"], "argument --time-limit:"),
            (["--attack", "sat", "--oracle", "ORIGINAL",
              "--max-iterations", "-3"], "argument --max-iterations:"),
            (["--oracle", "LOCKED"], "key inputs"),
        ],
        ids=["negative-h", "negative-time-limit", "negative-max-iterations",
             "locked-oracle"],
    )
    def test_attack(self, wide_bench, tmp_path, capsys, args, message):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(wide_bench), str(locked_path), "--h", "1"])
        capsys.readouterr()
        paths = {"LOCKED": str(locked_path), "ORIGINAL": str(wide_bench)}
        args = [paths.get(arg, arg) for arg in args]
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), *args])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.fixture
    def bad_gate_bench(self, tmp_path):
        path = tmp_path / "badgate.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n")
        return path

    def _usage_error(self, main, argv, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(arg) for arg in argv])
        assert excinfo.value.code == 2
        assert f"cannot read netlist {path}" in capsys.readouterr().err

    def test_missing_netlist_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.bench"
        self._usage_error(main_attack, [missing], missing, capsys)
        out = tmp_path / "locked.bench"
        self._usage_error(main_lock, [missing, out], missing, capsys)
        assert not out.exists()

    def test_unknown_gate_type_in_lock_netlist(
        self, bad_gate_bench, tmp_path, capsys
    ):
        out = tmp_path / "locked.bench"
        self._usage_error(
            main_lock, [bad_gate_bench, out], bad_gate_bench, capsys
        )
        assert not out.exists()

    def test_unknown_gate_type_in_oracle(
        self, wide_bench, bad_gate_bench, tmp_path, capsys
    ):
        locked_path = tmp_path / "locked.bench"
        main_lock([str(wide_bench), str(locked_path), "--h", "1"])
        capsys.readouterr()
        self._usage_error(
            main_attack,
            [locked_path, "--attack", "sat", "--oracle", bad_gate_bench],
            bad_gate_bench,
            capsys,
        )


    def test_oracle_with_other_output_names(self, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        locked_path.write_text(
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"
        )
        oracle_path = tmp_path / "oracle.bench"
        oracle_path.write_text("INPUT(a)\nOUTPUT(z)\nz = BUF(a)\n")
        with pytest.raises(SystemExit) as excinfo:
            main_attack([str(locked_path), "--attack", "sat",
                         "--oracle", str(oracle_path)])
        assert excinfo.value.code == 2
        assert "oracle outputs do not match" in capsys.readouterr().err


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

    def test_auto_and_empty_mean_auto(self):
        assert _jobs("auto") is None
        assert _jobs("  AUTO ") is None
        assert _jobs("") is None

    def test_integers_parse(self):
        assert _jobs("4") == 4
        assert _jobs(" 2 ") == 2

    @pytest.mark.parametrize("bad", ["zero", "1.5", "-", "2x"])
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError, match="positive"):
            _jobs(bad)

    @pytest.mark.parametrize("bad", ["0", "-7"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError, match="positive"):
            _jobs(bad)

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
