"""The unified :class:`Engine` protocol and named engine resolution.

Every simulation backend is an **engine**: an object exposing
``run(scenario, scheduler, *, trace=None) -> RunResult``
and registered under a name in :data:`engine_factories` (a
:class:`~repro.experiments.registry.FactoryRegistry`).  The built-in
names:

* ``"fast"`` — :class:`~repro.experiments.runner.FastEngine`, the
  contact-driven simulator behind Figs. 7/8 (default everywhere);
* ``"micro"`` — :class:`~repro.experiments.micro.MicroEngine`, the
  cycle-accurate COOJA-fidelity substitute (2–3 orders of magnitude
  slower; use short horizons);
* ``"vector"`` — :class:`~repro.experiments.vector.VectorEngine`, a
  numpy batch evaluator resolving the fast runner's inner loops as
  array kernels (equal to ``"fast"`` on the gated metrics: measured
  deltas are exactly 0.0).

A fleet needs no engine of its own: a network study runs every sensor
node as an ordinary cell on whichever engine the study names.

Because engines resolve **by name**, a :class:`RunSpec` carrying
``engine="micro"`` crosses a process boundary as a plain string and the
worker re-resolves it on its side — exactly the contract the mechanism
registry already established for scheduler factories.  This is what
lets a :class:`~repro.experiments.spec.StudySpec` list any number of
engines — two or more pair automatically into per-cell delta CIs, so
replicated micro-vs-fast comparisons run through the process pool like
any other grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from .registry import engine_factories

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from ..core.schedulers.base import Scheduler
    from ..mobility.contact import ContactTrace
    from .runner import RunResult
    from .scenario import Scenario

#: The engine names exercised by the paper reproduction, in speed order.
PAPER_ENGINES = ("fast", "micro")

@runtime_checkable
class Engine(Protocol):
    """One simulation backend: the single run API every engine exposes.

    Implementations are stateless adapters (all run state lives in the
    call), so one instance can serve any number of runs and registries
    can hand out fresh instances cheaply.
    """

    #: The registry name this engine answers to (``"fast"``, ...).
    name: str

    def run(
        self,
        scenario: "Scenario",
        scheduler: "Scheduler",
        *,
        trace: Optional["ContactTrace"] = None,
    ) -> "RunResult":
        """Simulate *scenario* under *scheduler* and return the result.

        Args:
            scenario: the complete configuration (seed, Φmax, epochs).
            scheduler: a freshly built scheduler instance (engines never
                share or reset scheduler state between runs).
            trace: optional pre-generated contact trace; when omitted
                the engine derives the deterministic trace seeded by
                ``scenario.seed``, so two engines given the same
                scenario compare on identical contact processes.
        """
        ...


def resolve_engine(name: str) -> Engine:
    """Instantiate the engine registered under *name*.

    Unknown names raise
    :class:`~repro.errors.ConfigurationError` listing the known
    engines.  Imports the built-in engine modules first so their
    registrations exist in any process (spawned workers included)
    regardless of import order — a
    :class:`~repro.experiments.runner.RunSpec` names its engine and the
    worker re-resolves it — mirroring
    :func:`repro.scenarios.resolve_scenario`.
    """
    from . import micro, runner, vector  # noqa: F401  (registers the built-ins)

    return engine_factories.resolve(name)()


def available_engines() -> list:
    """All resolvable engine names (built-ins plus runtime registrations).

    This is the single source for CLI ``choices=`` — the
    registry-consistency lint rule (``literal-choices``,
    :mod:`repro.analysis.registry_rules`) rejects hand-maintained engine
    sets there.
    """
    from . import micro, runner, vector  # noqa: F401  (registers the built-ins)

    return engine_factories.names()

