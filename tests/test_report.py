"""The generated experiment report."""

import re

import pytest

import repro.analysis.report as report_module
from repro.analysis.report import generate_report


@pytest.fixture(scope="module")
def report_text():
    # quick mode, shrunk further for the test run
    return generate_report(quick=True, scale_pages=192)


class TestReport:
    def test_contains_every_experiment(self, report_text):
        for heading in ("Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 8",
                        "Fig. 9", "Fig. 10", "Table 1", "Table 2",
                        "Table 3"):
            assert heading in report_text, heading

    def test_table3_values_embedded(self, report_text):
        assert "12.67" in report_text
        assert "11.15" in report_text

    def test_infinite_cells_rendered(self, report_text):
        assert "∞" in report_text

    def test_markdown_tables_well_formed(self, report_text):
        lines = report_text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("|") and set(line) <= {"|", "-", " "}:
                header = lines[i - 1]
                assert header.startswith("|")
                assert header.count("|") == line.count("|")

    def test_audit_section_lists_what_the_text_lists(self, monkeypatch):
        """Every dimension the text scorecard shows — a not-measurable
        one included — is a row of the report's audit section, cell for
        cell."""
        from repro.obs import audit
        report = audit.run_audit(audit.AuditInputs(snapshot={}))
        assert not any(dim.available for dim in report.dimensions)
        monkeypatch.setattr(audit, "run_golden_audit", lambda seed: report)
        monkeypatch.setattr(report_module, "EXPERIMENTS", {})
        markdown = generate_report()
        text = audit.to_text(report)
        for dim in report.dimensions:
            (md_row,) = [line.strip("| ").split(" | ")
                         for line in markdown.splitlines()
                         if line.startswith(f"| {dim.title} |")]
            (text_row,) = [re.split(r"\s{2,}", line.strip())
                           for line in text.splitlines()
                           if line.strip().startswith(dim.title)]
            assert md_row == text_row == [dim.title, "-", "-", "-",
                                          dim.unit, dim.summary]
