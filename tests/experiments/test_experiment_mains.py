"""End-to-end coverage of the experiment entry points (tiny scale).

Besides rendering, the tiny runs check the shape the paper reports:
SFLL adds logic (Table I), the functional analyses solve every circuit
and at least as many as the SAT attack (Figure 5), key confirmation
succeeds at least as often as the SAT attack (Figure 6), and FALL
defeats every cell oracle-less with a unique key (§VI-B).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import fig5, fig6, summary, table1
from repro.experiments.profiles import DEFAULT_SCALE, Scale

TINY = Scale(circuits=1, max_keys=6, max_gates=80, time_limit=10.0)


class TestTable1Main:
    def test_renders_and_writes_csv(self, tmp_path):
        csv_path = tmp_path / "t1.csv"
        text = table1.main(TINY, csv_path=str(csv_path))
        assert "Table I" in text
        assert "ex1010" in text
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("ckt,")
        assert len(lines) == 2  # header + one circuit
        gates, lo, hi = (int(cell) for cell in lines[1].split(",")[4:])
        # SFLL adds the stripped-functionality and restoration logic, so
        # every locked netlist is larger than the original.
        assert gates < lo <= hi

    def test_default_scale_rows_are_pinned(self):
        # The default `fall-experiments table1` output, row for row.
        assert table1.table1_rows(DEFAULT_SCALE.profiles()) == [
            ("ex1010", 10, 10, 10, 470, 1385, 1391),
            ("apex4", 10, 16, 10, 471, 1374, 1378),
            ("c1908", 33, 16, 16, 474, 1698, 1702),
            ("c432", 36, 7, 16, 257, 1256, 1260),
            ("apex2", 39, 3, 16, 414, 1631, 1635),
            ("c1355", 41, 16, 16, 462, 1721, 1725),
            ("seq", 41, 16, 16, 478, 1732, 1736),
            ("c499", 41, 16, 16, 470, 1729, 1733),
        ]


class TestFig5Main:
    def test_single_panel(self, tmp_path):
        csv_path = tmp_path / "f5.csv"
        text = fig5.main(TINY, panel="m/8", csv_path=str(csv_path))
        assert "Figure 5 panel: SFLL-HD m/8" in text
        assert "Distance2H" in text
        assert csv_path.exists()

    @pytest.mark.parametrize("panel", list(fig5.PANELS))
    def test_functional_analyses_solve_every_circuit(self, panel):
        result = fig5.run_panel(panel, TINY)
        sat_solved = len(result.series["SAT-Attack"])
        for name, times in result.series.items():
            if name != "SAT-Attack":
                assert len(times) == result.total, name
                assert len(times) >= sat_solved, name

    def test_panel_definitions_match_paper(self):
        assert set(fig5.PANELS) == {"hd0", "m/8", "m/4", "m/3"}
        assert "Distance2H" not in fig5.PANELS["m/3"]
        assert fig5.PANELS["hd0"] == ("AnalyzeUnateness", "SAT-Attack")


class TestFig6Main:
    def test_renders(self, tmp_path):
        csv_path = tmp_path / "f6.csv"
        text = fig6.main(TINY, csv_path=str(csv_path))
        assert "Figure 6" in text
        assert "keyconf-mean[s]" in text
        header, row = csv_path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        # Key confirmation succeeds on all four variants, so at least
        # as often as the SAT attack, on shortlists FALL produced.
        assert cells["keyconf-ok"] == "4/4"
        assert cells["fallback"] == "0/4"

    def test_counts_fallback_shortlists(self):
        # FALL cannot finish within a microsecond, so every variant runs
        # key confirmation on the constructed pair, and the row says so.
        rows = fig6.run_fig6(replace(TINY, time_limit=1e-6))
        assert [row.row()[-1] for row in rows] == ["4/4"]


class TestSummaryMain:
    def test_renders_headline(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        text = summary.main(TINY, csv_path=str(csv_path))
        assert "Headline statistics" in text
        assert "65/80 (81%)" in text  # the paper column
        assert csv_path.exists()

    def test_stats_object(self):
        stats = summary.run_summary(TINY)
        assert stats.total == 4  # 1 circuit x 4 settings
        # Oracle-less FALL defeats every cell with a unique key (the
        # paper's 81% defeat and 90% unique-key rates).
        assert stats.defeated == 4
        assert stats.unique_key == 4


class TestCliExperiments:
    def test_dispatch(self, capsys, monkeypatch):
        from repro.cli import main_experiments

        for name in ("REPRO_FULL", "REPRO_CIRCUITS", "REPRO_MAX_KEYS",
                     "REPRO_MAX_GATES", "REPRO_TIME_LIMIT"):
            monkeypatch.delenv(name, raising=False)
        assert main_experiments(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
