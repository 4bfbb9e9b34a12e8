"""Tests for the markdown report writer."""

from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.reporting import ExperimentResult

COMMITTED_REPORT = Path(__file__).parents[2] / "REPORT.md"


def _claims_table(report: str) -> list[str]:
    """The report's claims table: its first run of table lines."""
    lines = report.splitlines()
    start = lines.index("| claim | source | paper | bound | verdict |")
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


class TestToMarkdown:
    def test_table_structure(self):
        result = ExperimentResult(
            "x", "Title", ["a", "b"], rows=[[1, 2], [3, 4]]
        )
        md = result.to_markdown()
        lines = md.splitlines()
        assert lines[0] == "## [x] Title"
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md

    def test_plot_fenced(self):
        result = ExperimentResult("x", "T", ["a"], rows=[[1]], plot="PLOT")
        md = result.to_markdown()
        assert "```\nPLOT\n```" in md

    def test_notes_italicised(self):
        result = ExperimentResult("x", "T", ["a"], rows=[[1]], notes="N")
        assert "*N*" in result.to_markdown()


class TestCliReport:
    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["tab1", "--report", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "[tab1]" in text
        assert "report written" in capsys.readouterr().err

    def test_report_with_json(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["fig5", "--json", "--report", str(path)]) == 0
        import json

        out = capsys.readouterr().out
        assert json.loads(out)[0]["experiment_id"] == "fig5"
        assert path.exists()


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    """``repro-experiments --report PATH`` over every registered id."""
    path = tmp_path_factory.mktemp("report") / "REPORT.md"
    status = main(["--report", str(path)])
    return status, path.read_text()


class TestFullReport:
    def test_every_id_exits_zero(self, full_report):
        status, report = full_report
        assert status == 0
        assert "| FAIL |" not in report

    def test_committed_claims_table_matches_regeneration(self, full_report):
        """REPORT.md's claims table is what the tool writes today (the
        measured sections are left out: some time the host)."""
        _, report = full_report
        assert _claims_table(COMMITTED_REPORT.read_text()) == _claims_table(report)
