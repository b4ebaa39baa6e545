"""Worker-safety rules: what crosses a process boundary must survive it.

The transports ship shard functions and their payloads to worker
processes by pickling; the parallel layer deliberately keeps a few
broad ``except`` clauses at the executor boundary (a worker-side
exception *must* be captured whatever its type, or the parent hangs).
Outside those annotated boundaries the same constructs are bugs:

* ``unpicklable-callable`` — a lambda handed to an executor's
  ``map``/``imap``/``submit`` as the shard function forces the
  observable-but-slow serial fallback; use a module-level function and
  ship factories by registry name (:mod:`repro.experiments.registry`);
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

#: Transport methods whose function argument crosses the pool boundary.
PICKLED_DISPATCH_METHODS = frozenset({"map", "imap", "submit"})


class WorkerSafetyRule(Rule):
    """Shared scoping: shipped package code only (not tests)."""

    category = CATEGORY_WORKER_SAFETY

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro and not ctx.in_tests


@register_rule
class UnpicklableCallableRule(WorkerSafetyRule):
    """Lambdas must not be handed to an executor as the shard function."""

    rule_id = "unpicklable-callable"
    description = (
        "lambda passed into an executor map/imap/submit cannot be "
        "pickled to workers; use a module-level function"
    )
    node_types = (ast.Call,)

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        parts = dotted_name(node.func)
        if parts is None:
            return
        if (
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
