"""Static invariant analysis: the ``repro lint`` checker.

The reproduction's safety properties — byte-identical replays across
``jobs=1/N/shuffled``, registry names that resolve on any worker,
CLI surfaces that cannot drift from the registries — are contracts no
single test fully covers.  This package pushes them into a checker
that re-verifies the whole tree on every run (``python -m repro lint
src tests``), in the incremental spirit of verify-once/re-check-forever:

* :mod:`~repro.analysis.determinism` — no global RNG, no legacy
  ``np.random`` state, no wall-clock reads, no salted ``hash()`` in
  the determinism-scoped subpackages;
* :mod:`~repro.analysis.registry_rules` — registrations visible to
  workers, argparse ``choices=`` derived from registries, every
  ``examples/*.json`` valid under the strict spec loader;
* :mod:`~repro.analysis.worker_safety` — no unpicklable lambdas on
  pool-crossing APIs, no unannotated broad ``except``.

Exemptions are explicit: ``# lint: allow[rule-id] -- reason``
(:mod:`~repro.analysis.pragmas`; the reason is mandatory).  Rules
register like engines do (:data:`~repro.analysis.rules.lint_rules`,
a :class:`~repro.experiments.registry.FactoryRegistry`), every file
is walked once per run, and findings render through the same
table/JSON/CSV conventions as every other artifact
(:mod:`~repro.analysis.findings`).
"""

from .findings import LINT_FORMATS, Finding, LintReport
from .pragmas import PRAGMA_PATTERN, Pragma, PragmaIndex, parse_pragmas
from .rules import (
    FileContext,
    ProjectContext,
    Rule,
    all_rules,
    lint_rules,
    register_rule,
)
from .runner import PARSE_ERROR_RULE, collect_python_files, run_lint

# Importing the rule modules is what populates the registry (exactly
# like engines registering where they are defined).  The determinism
# module also owns the data-driven scope map re-exported here.
from .determinism import DETERMINISM_PACKAGES, DETERMINISM_SCOPE, EXEMPT_PACKAGES
from . import registry_rules as _registry_rules  # noqa: F401
from . import worker_safety as _worker_safety  # noqa: F401

__all__ = [
    "DETERMINISM_PACKAGES",
    "DETERMINISM_SCOPE",
    "EXEMPT_PACKAGES",
    "Finding",
    "FileContext",
    "LINT_FORMATS",
    "LintReport",
    "PARSE_ERROR_RULE",
    "PRAGMA_PATTERN",
    "Pragma",
    "PragmaIndex",
    "ProjectContext",
    "Rule",
    "all_rules",
    "collect_python_files",
    "lint_rules",
    "parse_pragmas",
    "register_rule",
    "run_lint",
]
