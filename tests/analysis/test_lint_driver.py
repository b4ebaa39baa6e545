"""The lint driver: collection, seeded violations, self-check.

Includes the two acceptance-criteria scenarios: a deliberately seeded
``time.time()`` module is reported with its rule id and file:line, and
the merged tree itself — ``run_lint(Path("src/repro"))`` plus the
shipped examples — comes back with zero findings.
"""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import all_rules, lint_rules, run_lint
from repro.analysis.runner import (
    PARSE_ERROR_RULE,
    collect_python_files,
    module_name,
)

#: The repo checkout (tests/analysis/ → two levels up).
REPO = Path(__file__).resolve().parents[2]


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(source), encoding="utf-8")
    return path


class TestCollection:
    def test_directories_recurse_sorted_and_dedup(self, tmp_path):
        a = write(tmp_path, "pkg/a.py", "x = 1\n")
        b = write(tmp_path, "pkg/sub/b.py", "x = 1\n")
        write(tmp_path, "pkg/notes.txt", "not python\n")
        files = collect_python_files([tmp_path, a])
        assert files == [a, b]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            collect_python_files([tmp_path / "nowhere"])

    def test_module_name_anchors_at_last_repro(self):
        assert (
            module_name(Path("src/repro/experiments/runner.py"))
            == "repro.experiments.runner"
        )
        assert (
            module_name(Path("repro/checkout/src/repro/sim/__init__.py"))
            == "repro.sim"
        )
        assert module_name(Path("tools/script.py")) == "script"


class TestSeededViolations:
    def test_wall_clock_module_reported_with_location(self, tmp_path):
        # Acceptance criterion: seed a time.time() module, assert the
        # rule id, file:line, and the non-zero-exit signal (report.ok).
        path = write(
            tmp_path,
            "repro/sim/clock.py",
            """\
            import time

            def stamp():
                return time.time()
            """,
        )
        report = run_lint([path], examples_dir="")
        assert not report.ok
        assert [f.rule for f in report.findings] == ["wall-clock"]
        assert report.findings[0].location == f"{path}:4"

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        path = write(tmp_path, "repro/sim/broken.py", "def oops(:\n")
        report = run_lint([path], examples_dir="")
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert report.findings[0].line == 1
        assert not report.ok

    def test_clean_module_passes_full_ruleset(self, tmp_path):
        path = write(
            tmp_path,
            "repro/sim/clean.py",
            """\
            from repro.sim.rng import derive_seed

            def seed_for(name, root):
                return derive_seed(root, name)
            """,
        )
        report = run_lint([path], examples_dir="")
        assert report.ok
        assert report.files_checked == 1
        assert report.rules == tuple(sorted(lint_rules.names()))


class TestSelfCheck:
    def test_repo_package_is_lint_clean(self):
        # The meta-check from the acceptance criteria: the linter must
        # pass on its own repository, examples included.
        report = run_lint(
            [REPO / "src" / "repro"], examples_dir=REPO / "examples"
        )
        assert report.findings == ()
        assert report.ok
        assert report.files_checked >= 80
        assert report.examples_checked >= 4

    def test_test_suite_is_lint_clean(self):
        report = run_lint([REPO / "tests"], examples_dir="")
        assert report.findings == ()

    def test_ruleset_covers_all_three_categories(self):
        categories = {rule.category for rule in all_rules()}
        assert {"determinism", "registry", "worker-safety"} <= categories
        assert len(all_rules()) >= 9
