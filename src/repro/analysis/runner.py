"""The lint driver: collect files, walk once, reconcile, report.

:func:`run_lint` is the single entry point behind ``python -m repro
lint`` and the test suite's meta-check.  The pipeline:

1. **Collect** — every ``*.py`` under the given paths (files are
   accepted directly), sorted for deterministic reports, plus the
   ``examples/*.json`` study documents (auto-discovered next to the
   working directory unless overridden).
2. **Parse** — each file once: AST + pragma index.  A file that does
   not parse yields a single ``parse-error`` finding instead of
   aborting the run.
3. **Walk** — one shared AST traversal per file dispatching to every
   applicable rule (:func:`repro.analysis.rules.walk_file`).
4. **Suppress** — findings carrying a matching
   ``# lint: allow[rule] -- reason`` pragma are dropped; malformed and
   unknown-rule pragmas become findings themselves.
5. **Reconcile** — project rules run once over all parsed files plus
   the example documents (registry ↔ map agreement, example-spec
   validity), with the same pragma suppression applied by site.
6. **Report** — findings sorted into a :class:`LintReport`; exit
   status is the report's :attr:`~repro.analysis.findings.LintReport.ok`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from .findings import Finding, LintReport, sort_findings
from .pragmas import audit_unknown_rules, parse_pragmas
from .rules import (
    FileContext,
    ProjectContext,
    Rule,
    all_rules,
    lint_rules,
    walk_file,
)

#: Pseudo-rule reported when a file cannot be parsed at all.
PARSE_ERROR_RULE = "parse-error"

PathLike = Union[str, Path]


def collect_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Every ``*.py`` under *paths*, de-duplicated and sorted.

    Directories are searched recursively; explicit file arguments are
    taken as-is (whatever their suffix), so ``lint some_script`` works.
    """
    seen = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for item in sorted(path.rglob("*.py")):
                seen.setdefault(str(item), item)
        elif path.exists():
            seen.setdefault(str(path), path)
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return [seen[key] for key in sorted(seen)]


def discover_examples(
    examples_dir: Optional[PathLike],
) -> tuple:
    """The StudySpec example documents to validate.

    ``None`` auto-discovers ``./examples`` (the repo layout) and is
    quietly empty when absent; an explicit directory must exist.
    """
    if examples_dir is None:
        candidate = Path("examples")
        if not candidate.is_dir():
            return ()
        examples_dir = candidate
    directory = Path(examples_dir)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"examples directory does not exist: {directory}"
        )
    return tuple(sorted(directory.glob("*.json")))


def module_name(path: Path) -> str:
    """The dotted module guess for *path* (anchored at ``repro``).

    ``src/repro/experiments/runner.py`` → ``repro.experiments.runner``;
    a file outside any ``repro`` tree falls back to its stem.  Uses the
    *last* ``repro`` component so a checkout directory that happens to
    be called ``repro`` does not shift the anchor.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def run_lint(
    paths: Union[PathLike, Sequence[PathLike]],
    *,
    examples_dir: Optional[PathLike] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> LintReport:
    """Lint *paths* and return the full :class:`LintReport`.

    Args:
        paths: one path or a sequence; directories recurse.
        examples_dir: directory of StudySpec JSON documents for the
            spec-consistency rule; default auto-discovers
            ``./examples``.  Pass a falsy non-None value (``""``) to
            skip example validation entirely.
        rules: override the registered ruleset (tests use this to
            exercise one rule in isolation).
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    active = list(rules) if rules is not None else all_rules()
    rule_ids = sorted(rule.rule_id for rule in active)
    known_rule_ids = set(rule_ids) | set(lint_rules.names())

    files = collect_python_files(paths)
    if examples_dir is not None and not examples_dir:
        examples = ()
    else:
        examples = discover_examples(examples_dir)

    project = ProjectContext(examples=examples)
    findings: List[Finding] = []
    project_rules = [
        rule for rule in active
        if type(rule).check_project is not Rule.check_project
    ]
    for path in files:
        display = str(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(_parse_error(display, 1, f"unreadable: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            findings.append(
                _parse_error(
                    display, exc.lineno or 1, f"syntax error: {exc.msg}"
                )
            )
            continue
        pragma_index, pragma_findings = parse_pragmas(display, source)
        ctx = FileContext(
            path=display,
            source=source,
            tree=tree,
            module=module_name(path),
            pragmas=pragma_index,
        )
        project.files.append(ctx)

        file_findings = list(pragma_findings)
        file_findings.extend(
            audit_unknown_rules(display, pragma_index, known_rule_ids)
        )
        file_findings.extend(walk_file(ctx, active))
        findings.extend(_suppress(file_findings, ctx))

    ctx_by_path = {ctx.path: ctx for ctx in project.files}
    for rule in project_rules:
        for finding in rule.check_project(project):
            ctx = ctx_by_path.get(finding.path)
            if ctx is not None and ctx.pragmas.suppressing(
                finding.rule, finding.line
            ):
                continue
            findings.append(finding)

    return LintReport(
        findings=sort_findings(findings),
        files_checked=len(files),
        examples_checked=len(examples),
        rules=tuple(rule_ids),
    )


def _suppress(
    findings: Iterable[Finding], ctx: FileContext
) -> List[Finding]:
    """Drop findings covered by a well-formed pragma at their site.

    Pragma-integrity findings (missing reason, unknown rule) are never
    suppressible — a pragma cannot vouch for itself.
    """
    kept = []
    for finding in findings:
        if finding.category != "pragma" and ctx.pragmas.suppressing(
            finding.rule, finding.line
        ):
            continue
        kept.append(finding)
    return kept


def _parse_error(path: str, line: int, message: str) -> Finding:
    return Finding(
        path=path, line=line, column=0,
        rule=PARSE_ERROR_RULE, message=message, category="lint",
    )
