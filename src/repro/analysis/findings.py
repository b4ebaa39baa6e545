"""Lint findings and the serializable report they aggregate into.

A :class:`Finding` is one invariant violation at one source location;
a :class:`LintReport` is the complete outcome of a lint run — findings
plus coverage counters — and renders through the same conventions the
experiment artifacts use (:mod:`repro.experiments.reporting`): an
aligned table for terminals, canonical JSON for ``--out`` artifacts
(byte-stable, round-trippable), CSV for spreadsheets, and
``--format github`` workflow annotations for the CI job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..errors import ConfigurationError
from ..experiments.reporting import format_csv, format_table

#: Report renderers the CLI exposes (``repro-snip lint --format NAME``).
LINT_FORMATS = ("table", "json", "github")

#: Schema version stamped into JSON artifacts (bump on field changes).
REPORT_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at one source location.

    Ordering is (path, line, column, rule, ...) so a sorted findings
    list reads file-by-file, top-to-bottom — and so reports are
    deterministic regardless of rule execution order.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    category: str = ""

    @property
    def location(self) -> str:
        """The clickable ``file:line`` form used in tables and logs."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        """The finding as a plain JSON-ready mapping."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
            "category": self.category,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output, strictly."""
        known = ("path", "line", "column", "rule", "message", "category")
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"unknown Finding key {key!r}; known: {sorted(known)}"
                )
        try:
            return cls(
                path=str(data["path"]),
                line=int(data["line"]),
                column=int(data["column"]),
                rule=str(data["rule"]),
                message=str(data["message"]),
                category=str(data.get("category", "")),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"Finding document missing key {exc.args[0]!r}"
            ) from None


@dataclass(frozen=True)
class LintReport:
    """The complete outcome of one lint run.

    Attributes:
        findings: every surviving (non-suppressed) finding, sorted.
        files_checked: Python files analyzed.
        examples_checked: StudySpec example documents validated by the
            spec-consistency rule.
        rules: the rule ids that ran, sorted (part of the artifact, so
            a clean report also records *what* it checked).
    """

    findings: Tuple[Finding, ...] = ()
    files_checked: int = 0
    examples_checked: int = 0
    rules: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the run surfaced no findings (exit status 0)."""
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-ready mapping (sorted, byte-stable)."""
        return {
            "version": REPORT_VERSION,
            "files_checked": self.files_checked,
            "examples_checked": self.examples_checked,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintReport":
        """Rebuild a report from :meth:`to_dict` output, strictly.

        ``cache_hits`` is accepted and ignored: reports written while
        ``lint`` had a findings cache carry it.
        """
        known = (
            "version", "files_checked", "examples_checked",
            "cache_hits", "rules", "findings",
        )
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"unknown LintReport key {key!r}; known: {sorted(known)}"
                )
        version = data.get("version", REPORT_VERSION)
        if version != REPORT_VERSION:
            raise ConfigurationError(
                f"unsupported LintReport version {version!r}; "
                f"this build reads version {REPORT_VERSION}"
            )
        return cls(
            findings=tuple(
                Finding.from_dict(entry)
                for entry in data.get("findings", ())
            ),
            files_checked=int(data.get("files_checked", 0)),
            examples_checked=int(data.get("examples_checked", 0)),
            rules=tuple(data.get("rules", ())),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Canonical JSON text (trailing newline; ``--out`` artifact)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LintReport":
        """Parse a report written by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid LintReport JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_csv(self) -> str:
        """Findings as CSV rows (``--out report.csv``)."""
        return format_csv(
            ["path", "line", "column", "rule", "category", "message"],
            (
                [f.path, f.line, f.column, f.rule, f.category, f.message]
                for f in self.findings
            ),
        )

    def render_table(self) -> str:
        """The terminal rendering: findings table plus a summary line."""
        lines: List[str] = []
        if self.findings:
            lines.append(
                format_table(
                    ["location", "rule", "message"],
                    [
                        [finding.location, finding.rule, finding.message]
                        for finding in self.findings
                    ],
                    title="Lint findings",
                )
            )
            lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def render_github(self) -> str:
        """GitHub Actions ``::error`` annotations, one per finding.

        The workflow-command format: printed to stdout inside a job,
        each line becomes an inline annotation on the PR diff.
        """
        lines = [
            f"::error file={finding.path},line={finding.line},"
            f"title=repro-lint {finding.rule}::{finding.message}"
            for finding in self.findings
        ]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """One line: what was checked and how it went."""
        verdict = (
            "clean" if self.ok else f"{len(self.findings)} finding(s)"
        )
        return (
            f"lint {verdict}: {self.files_checked} file(s), "
            f"{self.examples_checked} example spec(s), "
            f"{len(self.rules)} rule(s)"
        )


def sort_findings(findings: Iterable[Finding]) -> Tuple[Finding, ...]:
    """Findings in canonical report order (path, line, column, rule)."""
    return tuple(sorted(findings))
