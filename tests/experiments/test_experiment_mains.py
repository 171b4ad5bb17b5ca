"""End-to-end coverage of the experiment entry points (tiny scale)."""

from __future__ import annotations

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

    def test_panel_definitions_match_paper(self):
        assert set(fig5.PANELS) == {"hd0", "m/8", "m/4", "m/3"}
        assert "Distance2H" not in fig5.PANELS["m/3"]
        assert fig5.PANELS["hd0"] == ("AnalyzeUnateness", "SAT-Attack")


class TestFig6Main:
    def test_renders(self):
        text = fig6.main(TINY)
        assert "Figure 6" in text
        assert "keyconf-mean[s]" in text


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
        assert 0.0 <= stats.defeat_rate <= 1.0
        if stats.defeated:
            assert 0.0 <= stats.unique_rate <= 1.0


class TestCliExperiments:
    def test_dispatch(self, capsys, monkeypatch):
        from repro.cli import main_experiments

        for name in ("REPRO_FULL", "REPRO_CIRCUITS", "REPRO_MAX_KEYS",
                     "REPRO_MAX_GATES", "REPRO_TIME_LIMIT"):
            monkeypatch.delenv(name, raising=False)
        assert main_experiments(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
