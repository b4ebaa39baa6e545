"""The lint :class:`Rule` protocol, its registry, and file contexts.

Rules follow the registry idiom the experiment layer established
(:class:`~repro.experiments.registry.FactoryRegistry`): each rule class
registers under its ``rule_id``, :func:`all_rules` instantiates one
fresh instance of every registered rule per run, and the runner
(:mod:`repro.analysis.runner`) drives them all through **one shared AST
walk** per file — a rule declares which node types it wants
(:attr:`Rule.node_types`) and is dispatched only those, so adding a
rule never adds another traversal.

Two rule shapes exist:

* **AST rules** implement :meth:`Rule.check_node` and see every
  matching node of every file they :meth:`Rule.applies` to, along with
  the enclosing function/class scope stack (for nesting-sensitive
  checks like worker-side registration visibility).
* **Project rules** implement :meth:`Rule.check_project` and run once
  over the whole :class:`ProjectContext` after the per-file walks —
  this is where cross-file invariants (registry ↔ lazy-import-map
  agreement, example-spec validity) live.

One class may be both.  Findings from either shape are suppressed by
the same ``# lint: allow[rule] -- reason`` pragma mechanism.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, List, Optional, Tuple, Type

from ..experiments.registry import FactoryRegistry
from .findings import Finding
from .pragmas import PragmaIndex

#: Rule categories (one per invariant family the linter enforces).
CATEGORY_DETERMINISM = "determinism"
CATEGORY_REGISTRY = "registry"
CATEGORY_WORKER_SAFETY = "worker-safety"

#: The four named factory registries whose registrations the registry
#: rules track (:mod:`repro.experiments.registry`).
FACTORY_REGISTRY_NAMES = (
    "mechanism_factories",
    "engine_factories",
    "transport_factories",
    "scenario_factories",
)

#: Rule id → rule class; the lint analogue of ``engine_factories``.
lint_rules = FactoryRegistry("lint rule")


def register_rule(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator: register *cls* under its :attr:`Rule.rule_id`."""
    lint_rules.register(cls.rule_id, cls)
    return cls


def all_rules() -> List["Rule"]:
    """One fresh instance of every registered rule, id-sorted.

    Fresh instances per run let project rules accumulate walk-time
    state (registrations seen, maps parsed) without leaking it into the
    next invocation.
    """
    return [lint_rules.resolve(name)() for name in lint_rules.names()]


@dataclass
class FileContext:
    """Everything the rules may need to know about one Python file."""

    #: Display path (as collected from the lint arguments).
    path: str
    source: str
    tree: ast.Module
    #: Dotted module guess (``repro.experiments.runner``); the path
    #: stem when the file is outside a ``repro`` package tree.
    module: str
    pragmas: PragmaIndex

    @property
    def parts(self) -> Tuple[str, ...]:
        """The path split into components (scoping decisions)."""
        return Path(self.path).parts

    @property
    def in_tests(self) -> bool:
        """True for files under a directory named ``tests``."""
        return "tests" in self.parts

    @property
    def in_repro(self) -> bool:
        """True for files inside a ``repro`` package tree."""
        return "repro" in self.parts

    @property
    def subpackage(self) -> Optional[str]:
        """The first package below ``repro`` (``"sim"``, ...) or None."""
        parts = self.parts
        if "repro" not in parts:
            return None
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts) - 1:
            return parts[index + 1]
        return None

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        *,
        line: Optional[int] = None,
    ) -> Finding:
        """A finding by *rule* at *node* (or an explicit *line*)."""
        return Finding(
            path=self.path,
            line=line if line is not None else getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=rule.rule_id,
            message=message,
            category=rule.category,
        )


@dataclass
class ProjectContext:
    """The cross-file view the project rules run over."""

    files: List[FileContext] = field(default_factory=list)
    #: StudySpec example documents to validate (``examples/*.json``).
    examples: Tuple[Path, ...] = ()


class Rule:
    """Base class for lint rules; subclass and :func:`register_rule`.

    Class attributes:
        rule_id: the pragma-addressable identifier (kebab-case).
        category: one of the three invariant families.
        description: one line for ``lint --list-rules`` and the README
            rule catalogue.
        node_types: AST node classes :meth:`check_node` wants; empty
            for pure project rules.
    """

    rule_id: ClassVar[str] = ""
    category: ClassVar[str] = ""
    description: ClassVar[str] = ""
    node_types: ClassVar[Tuple[type, ...]] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether this rule inspects *ctx* at all (path scoping)."""
        return True

    def check_node(
        self, node: ast.AST, ctx: FileContext, scope: Tuple[ast.AST, ...]
    ) -> Iterator[Finding]:
        """Findings for one AST node; *scope* is the enclosing
        function/class stack (innermost last, module level = empty)."""
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Findings requiring the whole-project view; runs once."""
        return iter(())


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The attribute chain of *node* as name parts, or None.

    ``np.random.seed`` → ``("np", "random", "seed")``; anything with a
    non-Name root (a call result, a subscript) returns None — such
    chains cannot be resolved statically and the rules treat them as
    out of scope rather than guessing.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def walk_file(ctx: FileContext, rules: Iterable[Rule]) -> List[Finding]:
    """Drive every applicable AST rule through one walk of *ctx*.

    The walker maintains the scope stack the nesting-sensitive rules
    need: decorators evaluate *outside* the function they decorate (at
    module import time for a top-level def), so they are visited before
    the function scope is pushed — a top-level
    ``@engine_factories.register(...)`` is correctly seen as a
    module-level registration.
    """
    interested = [rule for rule in rules if rule.node_types and rule.applies(ctx)]
    if not interested:
        return []
    dispatch = {}
    for rule in interested:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: List[Finding] = []
    scope: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.check_node(node, ctx, tuple(scope)))
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for decorator in node.decorator_list:
                visit(decorator)
            scope.append(node)
            for child in ast.iter_child_nodes(node):
                if any(child is d for d in node.decorator_list):
                    continue
                visit(child)
            scope.pop()
        elif isinstance(node, ast.Lambda):
            scope.append(node)
            for child in ast.iter_child_nodes(node):
                visit(child)
            scope.pop()
        else:
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ctx.tree)
    return findings
