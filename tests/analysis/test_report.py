"""Findings/report serialization: golden JSON, strictness, renderings."""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.analysis.findings import (
    LINT_FORMATS,
    Finding,
    LintReport,
    sort_findings,
)
from repro.errors import ConfigurationError

FINDINGS = (
    Finding(
        path="src/repro/sim/clock.py", line=12, column=11,
        rule="wall-clock", category="determinism",
        message="`time.time()` reads wall-clock state",
    ),
    Finding(
        path="src/repro/experiments/cli.py", line=402, column=45,
        rule="literal-choices", category="registry",
        message="choices= embeds a literal name set",
    ),
)

REPORT = LintReport(
    findings=sort_findings(FINDINGS),
    files_checked=2,
    examples_checked=4,
    rules=("literal-choices", "wall-clock"),
)

#: The byte-exact artifact for REPORT: the `--out` contract.  Breaking
#: this golden means bumping REPORT_VERSION, not editing the test.
GOLDEN_JSON = dedent(
    """\
    {
      "examples_checked": 4,
      "files_checked": 2,
      "findings": [
        {
          "category": "registry",
          "column": 45,
          "line": 402,
          "message": "choices= embeds a literal name set",
          "path": "src/repro/experiments/cli.py",
          "rule": "literal-choices"
        },
        {
          "category": "determinism",
          "column": 11,
          "line": 12,
          "message": "`time.time()` reads wall-clock state",
          "path": "src/repro/sim/clock.py",
          "rule": "wall-clock"
        }
      ],
      "rules": [
        "literal-choices",
        "wall-clock"
      ],
      "version": 1
    }
    """
)


class TestGoldenRoundTrip:
    def test_to_json_matches_golden(self):
        assert REPORT.to_json() == GOLDEN_JSON

    def test_from_json_round_trips(self):
        assert LintReport.from_json(GOLDEN_JSON) == REPORT

    def test_legacy_cache_hits_key_still_loads(self):
        # Reports written while `lint` kept a findings cache carry a
        # `cache_hits` count; it no longer means anything but must load.
        data = json.loads(GOLDEN_JSON)
        data["cache_hits"] = 1
        assert LintReport.from_dict(data) == REPORT

    def test_finding_dict_round_trips(self):
        for finding in FINDINGS:
            assert Finding.from_dict(finding.to_dict()) == finding

    def test_sort_is_path_then_line(self):
        ordered = sort_findings(FINDINGS)
        assert [f.path for f in ordered] == [
            "src/repro/experiments/cli.py", "src/repro/sim/clock.py",
        ]


class TestStrictness:
    def test_unknown_report_key_rejected(self):
        data = json.loads(GOLDEN_JSON)
        data["extra"] = True
        with pytest.raises(ConfigurationError, match="unknown LintReport key"):
            LintReport.from_dict(data)

    def test_unknown_finding_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown Finding key"):
            Finding.from_dict({"path": "x", "line": 1, "colour": 0})

    def test_missing_finding_key_rejected(self):
        with pytest.raises(ConfigurationError, match="missing key"):
            Finding.from_dict({"path": "x"})

    def test_future_version_rejected(self):
        data = json.loads(GOLDEN_JSON)
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            LintReport.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid LintReport"):
            LintReport.from_json("{nope")


class TestRenderings:
    def test_formats_catalogue(self):
        assert LINT_FORMATS == ("table", "json", "github")

    def test_table_lists_locations_and_summary(self):
        text = REPORT.render_table()
        assert "src/repro/sim/clock.py:12" in text
        assert "wall-clock" in text
        assert text.endswith(REPORT.summary())

    def test_github_annotations_format(self):
        lines = REPORT.render_github().splitlines()
        assert lines[0] == (
            "::error file=src/repro/experiments/cli.py,line=402,"
            "title=repro-lint literal-choices"
            "::choices= embeds a literal name set"
        )
        assert lines[-1] == REPORT.summary()

    def test_csv_has_header_and_rows(self):
        lines = REPORT.to_csv().strip().splitlines()
        assert lines[0] == "path,line,column,rule,category,message"
        assert len(lines) == 3

    def test_summary_clean_vs_findings(self):
        clean = LintReport(files_checked=5, rules=("a", "b"))
        assert clean.ok
        assert "lint clean: 5 file(s)" in clean.summary()
        assert not REPORT.ok
        assert "2 finding(s)" in REPORT.summary()
