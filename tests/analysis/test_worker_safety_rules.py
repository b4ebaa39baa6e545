"""Fixture tests for the worker-safety rule family."""

from __future__ import annotations

from repro.analysis.worker_safety import BroadExceptRule, UnpicklableCallableRule


def rule_ids(report):
    return [finding.rule for finding in report.findings]


class TestUnpicklableCallable:
    def test_lambda_shard_into_executor_flagged(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/drive.py": """\
                def drive(pool, shards):
                    return pool.map(lambda shard: shard.run(), shards)
                """
            },
            rules=[UnpicklableCallableRule()],
        )
        assert rule_ids(report) == ["unpicklable-callable"]
        assert "serial fallback" in report.findings[0].message

    def test_named_functions_are_clean(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/drive.py": """\
                def run_shard(shard):
                    return shard.run()

                def drive(pool, shards):
                    return pool.map(run_shard, shards)
                """
            },
            rules=[UnpicklableCallableRule()],
        )
        assert report.ok

    def test_local_lambda_use_is_clean(self, lint_tree):
        # Lambdas that never cross a process boundary are fine.
        report = lint_tree(
            {
                "repro/experiments/sort.py": """\
                def order(rows):
                    return sorted(rows, key=lambda row: row.name)
                """
            },
            rules=[UnpicklableCallableRule()],
        )
        assert report.ok


class TestBroadExcept:
    def test_except_exception_flagged(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/risky.py": """\
                def run(fn):
                    try:
                        return fn()
                    except Exception:
                        return None
                """
            },
            rules=[BroadExceptRule()],
        )
        assert rule_ids(report) == ["broad-except"]
        assert report.findings[0].line == 4

    def test_bare_except_and_tuple_flagged(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/risky.py": """\
                def run(fn):
                    try:
                        return fn()
                    except (ValueError, BaseException):
                        pass
                    try:
                        return fn()
                    except:
                        return None
                """
            },
            rules=[BroadExceptRule()],
        )
        assert rule_ids(report) == ["broad-except", "broad-except"]

    def test_narrow_except_is_clean(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/risky.py": """\
                def run(fn):
                    try:
                        return fn()
                    except (ValueError, OSError):
                        return None
                """
            },
            rules=[BroadExceptRule()],
        )
        assert report.ok

    def test_trailing_pragma_suppresses(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/boundary.py": """\
                def guard(fn):
                    try:
                        return fn()
                    except Exception as exc:  # lint: allow[broad-except] -- executor boundary
                        return exc
                """
            },
            rules=[BroadExceptRule()],
        )
        assert report.ok

    def test_standalone_multiline_pragma_suppresses(self, lint_tree):
        # The reason may wrap onto continuation comment lines; the
        # pragma still targets the next *code* line.
        report = lint_tree(
            {
                "repro/experiments/boundary.py": """\
                def guard(fn):
                    try:
                        return fn()
                    # lint: allow[broad-except] -- the executor boundary:
                    # worker-side failures must be captured whole
                    except Exception as exc:
                        return exc
                """
            },
            rules=[BroadExceptRule()],
        )
        assert report.ok

    def test_pragma_on_other_line_does_not_suppress(self, lint_tree):
        report = lint_tree(
            {
                "repro/experiments/boundary.py": """\
                def guard(fn):
                    # lint: allow[broad-except] -- annotates the def, not the except
                    try:
                        return fn()
                    except Exception:
                        return None
                """
            },
            rules=[BroadExceptRule()],
        )
        assert rule_ids(report) == ["broad-except"]
