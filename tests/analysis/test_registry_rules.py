"""Fixture tests for the registry/CLI-consistency rule family.

Covers worker-side registration visibility, literal argparse
``choices=``, and example-spec validation against the live registries.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.registry_rules import (
    LiteralChoicesRule,
    SpecExamplesRule,
    WorkerResolvableRule,
)

#: The repo checkout (tests/analysis/ → two levels up).
REPO = Path(__file__).resolve().parents[2]

#: A module registering one engine at module level, decorator-style.
FAST_MODULE = """\
from .registry import engine_factories

@engine_factories.register("fast")
def build_fast():
    return object()
"""


def rule_ids(report):
    return [finding.rule for finding in report.findings]


class TestWorkerResolvable:
    def test_registration_inside_function_flagged(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/plugins.py": """\
                from .registry import engine_factories

                def setup():
                    engine_factories.register("lazy", object)
                """
            },
            rules=[WorkerResolvableRule()],
        )
        assert rule_ids(report) == ["registry-worker-resolvable"]
        assert "'lazy'" in report.findings[0].message

    def test_module_level_registrations_are_clean(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/fast.py": FAST_MODULE,
                "repro/experiments/direct.py": """\
                from .registry import transport_factories

                transport_factories.register("local", object)
                """,
            },
            rules=[WorkerResolvableRule()],
        )
        assert report.ok

    def test_unrelated_register_methods_ignored(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/other.py": """\
                def setup(bus):
                    bus.register("event", object)
                """
            },
            rules=[WorkerResolvableRule()],
        )
        assert report.ok


class TestLiteralChoices:
    def test_literal_list_flagged(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/cli_bits.py": """\
                def add(parser):
                    parser.add_argument("--engine", choices=["fast", "micro"])
                """
            },
            rules=[LiteralChoicesRule()],
        )
        assert rule_ids(report) == ["literal-choices"]

    def test_literal_inside_expression_flagged(self, lint_tree):
        # The historical cli.py drift: sorted({*PAPER_ENGINES, "vector"}).
        report = lint_tree(
            {
                "repro/experiments/cli_bits.py": """\
                def add(parser, extra):
                    parser.add_argument(
                        "--engine", choices=sorted({*extra, "vector"})
                    )
                """
            },
            rules=[LiteralChoicesRule()],
        )
        assert rule_ids(report) == ["literal-choices"]

    def test_registry_derived_choices_are_clean(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/cli_bits.py": """\
                def add(parser):
                    parser.add_argument("--engine", choices=available_engines())
                    parser.add_argument("--transport", choices=transport_names())
                    parser.add_argument(
                        "--mech", choices=sorted(mechanism_factories.names())
                    )
                """
            },
            rules=[LiteralChoicesRule()],
        )
        assert report.ok

    def test_non_name_choices_are_clean(self, lint_tree):
        # A module-level constant (like LINT_FORMATS) embeds no literal
        # at the call site; numeric ranges are not name registries.
        report = lint_tree(
            {
                "repro/experiments/cli_bits.py": """\
                def add(parser):
                    parser.add_argument("--format", choices=LINT_FORMATS)
                    parser.add_argument("--level", choices=range(3))
                """
            },
            rules=[LiteralChoicesRule()],
        )
        assert report.ok


class TestSpecExamples:
    def test_valid_repo_examples_pass(self):
        report = run_lint(
            [], examples_dir=REPO / "examples", rules=[SpecExamplesRule()]
        )
        assert report.ok
        assert report.examples_checked >= 4

    def test_invalid_json_flagged(self, tmp_path):
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "broken.json").write_text("{not json", encoding="utf-8")
        report = run_lint(
            [], examples_dir=examples, rules=[SpecExamplesRule()]
        )
        assert rule_ids(report) == ["spec-example-names"]
        assert "not valid JSON" in report.findings[0].message

    def test_unregistered_name_flagged(self, tmp_path):
        good = json.loads(
            (REPO / "examples" / "agreement_gate.json").read_text(
                encoding="utf-8"
            )
        )
        good["axes"]["mechanisms"] = ["SNIP-IMAGINARY"]
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "bad_name.json").write_text(
            json.dumps(good), encoding="utf-8"
        )
        report = run_lint(
            [], examples_dir=examples, rules=[SpecExamplesRule()]
        )
        assert rule_ids(report) == ["spec-example-names"]
        assert "StudySpec.from_dict" in report.findings[0].message
