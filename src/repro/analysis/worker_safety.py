"""Worker-safety rules: what crosses a process boundary must survive it.

The transports ship shard functions and their payloads to worker
processes by pickling; the parallel layer deliberately keeps a few
broad ``except`` clauses at the executor boundary (a worker-side
exception *must* be captured whatever its type, or the parent hangs).
Outside those annotated boundaries the same constructs are bugs:

* ``unpicklable-callable`` — a lambda passed where picklability is
  required (``NamedFactory``, an executor's ``map``/``imap``/``submit``)
  forces the observable-but-slow serial fallback; register the factory
  by name instead (:mod:`repro.experiments.registry`);
* ``broad-except`` — ``except Exception`` (or bare ``except``) hides
  real failures behind a fallback path.  The intentional executor
  boundaries carry ``# lint: allow[broad-except] -- reason`` pragmas;
  everything else must name the failure it expects.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .findings import Finding
from .rules import (
    CATEGORY_WORKER_SAFETY,
    FileContext,
    Rule,
    dotted_name,
    register_rule,
)

#: Constructors whose callable arguments must be picklable (shipped to
#: workers by the transports).
PICKLED_CONSTRUCTORS = frozenset({"NamedFactory"})

#: Transport methods whose function argument crosses the pool boundary.
PICKLED_DISPATCH_METHODS = frozenset({"map", "imap", "submit"})


class WorkerSafetyRule(Rule):
    """Shared scoping: shipped package code only (not tests)."""

    category = CATEGORY_WORKER_SAFETY

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro and not ctx.in_tests


@register_rule
class UnpicklableCallableRule(WorkerSafetyRule):
    """Lambdas must not be handed to the picklability-requiring APIs."""

    rule_id = "unpicklable-callable"
    description = (
        "lambda passed into NamedFactory or an executor "
        "map/imap/submit cannot be pickled to workers; register a "
        "named factory instead"
    )
    node_types = (ast.Call,)

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        parts = dotted_name(node.func)
        if parts is None:
            return
        if parts[-1] in PICKLED_CONSTRUCTORS:
            for value in self._argument_values(node):
                if isinstance(value, ast.Lambda):
                    yield ctx.finding(
                        self, value,
                        f"lambda passed to {parts[-1]} cannot cross a "
                        "process boundary; register the factory by "
                        "name in repro.experiments.registry and pass "
                        "the name (or a NamedFactory)",
                    )
        elif (
            len(parts) >= 2
            and parts[-1] in PICKLED_DISPATCH_METHODS
            and node.args
            and isinstance(node.args[0], ast.Lambda)
        ):
            yield ctx.finding(
                self, node.args[0],
                f"lambda shard function handed to .{parts[-1]}() is "
                "unpicklable, forcing the serial fallback; use a "
                "module-level function",
            )

    @staticmethod
    def _argument_values(node: ast.Call):
        for arg in node.args:
            yield arg
        for keyword in node.keywords:
            yield keyword.value


@register_rule
class BroadExceptRule(WorkerSafetyRule):
    """``except Exception`` only at annotated executor boundaries."""

    rule_id = "broad-except"
    description = (
        "bare/broad except hides real failures; narrow it, or annotate "
        "an intentional executor boundary with the pragma"
    )
    node_types = (ast.ExceptHandler,)

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        broad = self._broad_name(node.type)
        if broad is None:
            return
        yield ctx.finding(
            self, node,
            f"{broad} catches everything, including the failures the "
            "determinism machinery must see; narrow it to the "
            "exception(s) you expect, or annotate an intentional "
            "executor boundary with "
            "`# lint: allow[broad-except] -- reason`",
        )

    @staticmethod
    def _broad_name(expr) -> str | None:
        """The offending clause text when *expr* is broad, else None."""
        if expr is None:
            return "bare `except:`"
        names = [expr] if not isinstance(expr, ast.Tuple) else list(expr.elts)
        for name in names:
            if isinstance(name, ast.Name) and name.id in (
                "Exception", "BaseException",
            ):
                return f"`except {name.id}`"
        return None
