"""Registry/CLI consistency rules: one source of truth for every name.

Three named registries drive the experiment layer (mechanisms, engines,
scenarios — :mod:`repro.experiments.registry`), and two
other surfaces must stay in lockstep with them: every argparse
``choices=`` the CLI exposes, and the shipped ``examples/*.json`` study
documents.  Each can drift silently: a hand-maintained CLI engine set,
an example spec naming a mechanism that no longer exists.  These rules
pin both surfaces to the registries, and keep every registration
visible to workers:

* ``registry-worker-resolvable`` — a ``*_factories.register(...)``
  call nested inside a function body only exists after that function
  runs, so a worker that merely imports the module cannot resolve the
  name; registrations must be module-level (decorator or direct call);
* ``literal-choices`` — an ``add_argument(choices=...)`` whose value
  embeds a literal name list duplicates a registry by hand; choices
  must be derived from a registry call
  (``engine_factories.names()``, ``available_engines()``, ...);
* ``spec-example-names`` — every shipped example document must load
  under the strict :meth:`~repro.experiments.spec.StudySpec.from_dict`
  (which resolves every mechanism/engine/scenario/node-factory name
  against the live registries, and builds the named transport).
"""

from __future__ import annotations

import ast
import json
from typing import Iterator, List, Optional, Tuple

from .findings import Finding
from .rules import (
    CATEGORY_REGISTRY,
    FACTORY_REGISTRY_NAMES,
    FileContext,
    ProjectContext,
    Rule,
    dotted_name,
    register_rule,
)

#: Registry helper calls accepted as "derived from a registry" by the
#: ``literal-choices`` rule (all return live registry names).
REGISTRY_CHOICE_HELPERS = frozenset({
    "available_engines",
    "available_scenarios",
})


def _registration(node: ast.Call) -> Optional[Tuple[str, Optional[str]]]:
    """``(registry, name)`` when *node* is ``X_factories.register(...)``.

    *name* is None for a dynamic (non-literal) first argument — still a
    registration for nesting checks.
    """
    parts = dotted_name(node.func)
    if parts is None or len(parts) < 2 or parts[-1] != "register":
        return None
    registry = parts[-2]
    if registry not in FACTORY_REGISTRY_NAMES:
        return None
    name: Optional[str] = None
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
        node.args[0].value, str
    ):
        name = node.args[0].value
    return registry, name


class RegistryRule(Rule):
    """Shared scoping: shipped package code only (not tests)."""

    category = CATEGORY_REGISTRY

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro and not ctx.in_tests


@register_rule
class WorkerResolvableRule(RegistryRule):
    """Registrations must be visible to a worker that just imports."""

    rule_id = "registry-worker-resolvable"
    description = (
        "factory registration nested inside a function is invisible to "
        "workers that import the module; register at module level"
    )
    node_types = (ast.Call,)

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        registration = _registration(node)
        if registration is None:
            return
        if any(
            isinstance(frame, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for frame in scope
        ):
            registry, name = registration
            label = f"{name!r} " if name else ""
            yield ctx.finding(
                self, node,
                f"{registry}.register({label}...) inside a function "
                "runs only when that function is called, so a spawned "
                "worker importing this module cannot resolve the name; "
                "register at module level (decorator or direct call)",
            )


@register_rule
class LiteralChoicesRule(RegistryRule):
    """CLI ``choices=`` must be derived from a registry, not spelled."""

    rule_id = "literal-choices"
    description = (
        "argparse choices= embedding a literal name list duplicates a "
        "registry; derive it (engine_factories.names(), "
        "available_engines(), ...)"
    )
    node_types = (ast.Call,)

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
            return
        for keyword in node.keywords:
            if keyword.arg != "choices":
                continue
            if self._has_literal_display(keyword.value) and not (
                self._derives_from_registry(keyword.value)
            ):
                yield ctx.finding(
                    self, keyword.value,
                    "choices= embeds a literal name set; derive it "
                    "from the registry that owns the names "
                    "(e.g. available_engines(), available_scenarios(), "
                    "mechanism_factories.names()) so the CLI cannot drift",
                )

    @staticmethod
    def _has_literal_display(expr: ast.AST) -> bool:
        """True when the expression embeds a list/set/tuple literal."""
        return any(
            isinstance(sub, (ast.List, ast.Set, ast.Tuple))
            for sub in ast.walk(expr)
        )

    @staticmethod
    def _derives_from_registry(expr: ast.AST) -> bool:
        """True when a registry call appears anywhere in the expression."""
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            parts = dotted_name(sub.func)
            if parts is None:
                continue
            if parts[-1] in REGISTRY_CHOICE_HELPERS:
                return True
            if (
                len(parts) >= 2
                and parts[-1] == "names"
                and parts[-2] in FACTORY_REGISTRY_NAMES
            ):
                return True
        return False


@register_rule
class SpecExamplesRule(Rule):
    """Shipped example documents must satisfy the strict spec loader.

    A project rule with no AST half: it exercises
    :meth:`repro.experiments.spec.StudySpec.from_dict` — the same
    strict loader (unknown keys, registry-name resolution, transport
    option validation) the CLI uses — against every collected
    ``examples/*.json``, so renaming a mechanism/engine/transport
    breaks the lint run, not a user's first ``repro-snip run``.
    """

    rule_id = "spec-example-names"
    category = CATEGORY_REGISTRY
    description = (
        "every examples/*.json must load under StudySpec.from_dict "
        "with only registered names"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if not project.examples:
            return
        # Imported lazily: the linter core must stay importable (and
        # testable) without dragging in the whole experiment stack.
        from ..errors import ReproError
        from ..experiments.spec import StudySpec

        for path in project.examples:
            display = str(path)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                yield self._finding(display, 1, f"unreadable example: {exc}")
                continue
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                yield self._finding(
                    display, exc.lineno,
                    f"example is not valid JSON: {exc.msg}",
                )
                continue
            try:
                StudySpec.from_dict(data)
            except ReproError as exc:
                yield self._finding(
                    display, 1,
                    f"example does not satisfy StudySpec.from_dict: {exc}",
                )

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, column=0,
            rule=self.rule_id, message=message, category=self.category,
        )
