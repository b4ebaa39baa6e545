"""Named factory registries for cross-process resolution.

A scheduler factory that is a closure cannot be pickled, so a process
pool handed one degrades to serial execution.  Factories are therefore
registered under a **name**, and only the name crosses the process
boundary: a :class:`~repro.experiments.runner.RunSpec` carries plain
strings, and the worker re-resolves them against its own copy of the
registry (populated at import time, or inherited via fork), so the
factory itself never needs to be picklable.

Four registries exist, one per factory signature:

* :data:`mechanism_factories` — ``factory(scenario) -> Scheduler``, the
  mechanisms a :class:`~repro.experiments.runner.RunSpec` names (grid
  cells and fleet nodes alike);
* :data:`engine_factories` — ``factory() -> Engine``, the simulation
  backends behind the unified run API (``"fast"``, ``"micro"``,
  ``"vector"``; see :mod:`repro.experiments.engine`, which owns the
  protocol and the lazy-import resolution helper);
* :data:`transport_factories` — ``factory(jobs=..., batch_size=...,
  **options) -> Transport``, the execution backends shards run on
  (``"serial"``, ``"pool"``, ``"file-queue"``; see
  :mod:`repro.experiments.transport`, which owns the built-in
  registrations and strict option validation);
* :data:`scenario_factories` — ``factory(**options) -> Scenario``, the
  named workloads studies sweep as a fifth axis (``"paper-roadside"``,
  ``"diurnal"``, ``"trace-driven"``, ``"mixed-fleet"``,
  ``"flash-crowd"``, ``"dead-zone"``, ``"churn"``; see
  :mod:`repro.scenarios`, which owns the built-in registrations and
  the lazy-import resolution helper).

Registering a custom mechanism at module level (so spawned workers
re-run the registration when they import the module)::

    from repro.experiments.registry import mechanism_factories

    @mechanism_factories.register("my-rh")
    def my_rh(scenario):
        return SnipRhScheduler(scenario.profile, scenario.model,
                               initial_contact_length=2.0)

    # a grid's axes.mechanisms or a fleet's network.node_factory
    StudySpec(mechanisms=("my-rh",), jobs=8)

The paper's three mechanisms (SNIP-AT, SNIP-OPT, SNIP-RH) are
pre-registered at import time.

The registries are also what makes the declarative study layer
(:mod:`repro.experiments.spec`) portable: a
:class:`~repro.experiments.spec.StudySpec` references mechanisms,
engines, transports and scenarios exclusively by these names, so a
study file validated against the registries here executes identically
on any host where the same registrations exist.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..core.schedulers.at import SnipAtScheduler
from ..core.schedulers.opt import SnipOptScheduler
from ..core.schedulers.rh import SnipRhScheduler
from ..errors import ConfigurationError

#: The mechanism names of the paper's evaluation, in figure order.
PAPER_MECHANISMS = ("SNIP-AT", "SNIP-OPT", "SNIP-RH")


class FactoryRegistry:
    """A name → scheduler-factory mapping with decorator registration."""

    def __init__(self, kind: str) -> None:
        """*kind* labels the registry in error messages and reprs."""
        self.kind = kind
        self._factories: Dict[str, Callable] = {}

    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        replace: bool = False,
    ):
        """Register *factory* under *name*; usable as a decorator.

        Direct form: ``registry.register("x", fn)``.  Decorator form::

            @registry.register("x")
            def fn(...): ...

        Re-registering an existing name raises unless ``replace=True``
        (accidental shadowing of a built-in mechanism would silently
        change every sweep that names it).
        """
        if factory is None:
            def decorator(fn: Callable) -> Callable:
                self.register(name, fn, replace=replace)
                return fn

            return decorator
        if not name:
            raise ConfigurationError(f"{self.kind} factory name must be non-empty")
        if not replace and name in self._factories:
            raise ConfigurationError(
                f"{self.kind} factory {name!r} is already registered; "
                "pass replace=True to overwrite it"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove *name* from the registry (test/teardown helper)."""
        if name not in self._factories:
            raise ConfigurationError(
                f"unknown {self.kind} factory {name!r}; known: {self.names()}"
            )
        del self._factories[name]

    def resolve(self, name: str) -> Callable:
        """The factory registered under *name*; raises on unknown names."""
        try:
            return self._factories[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} factory {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """The registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        """True when *name* is registered."""
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        """Iterate over the registered names, sorted."""
        return iter(self.names())

    def __len__(self) -> int:
        """Number of registered factories."""
        return len(self._factories)

    def __repr__(self) -> str:
        return f"FactoryRegistry({self.kind!r}, names={self.names()})"


#: Sweep/grid mechanism factories: ``factory(scenario) -> Scheduler``.
mechanism_factories = FactoryRegistry("mechanism")

#: Simulation backends: ``factory() -> Engine`` (the unified run API).
#: Built-ins register where they are defined (``"fast"`` in
#: :mod:`repro.experiments.runner`, ``"micro"`` in
#: :mod:`repro.experiments.micro`); resolve through
#: :func:`repro.experiments.engine.resolve_engine`, which imports those
#: modules lazily for workers that have not loaded them yet.
engine_factories = FactoryRegistry("engine")

#: Execution backends: ``factory(jobs=..., batch_size=...,
#: **options) -> Transport``.  Built-ins (``"serial"``, ``"pool"``,
#: ``"file-queue"``) register in :mod:`repro.experiments.transport`;
#: resolve through
#: :func:`repro.experiments.transport.resolve_transport`, which
#: validates the per-transport options strictly before construction.
transport_factories = FactoryRegistry("transport")

#: Named workloads: ``factory(**options) -> Scenario`` (the fifth study
#: axis).  Built-ins register in :mod:`repro.scenarios.builtin`; resolve
#: through :func:`repro.scenarios.resolve_scenario`, which imports that
#: module lazily for processes that have not loaded it yet.
scenario_factories = FactoryRegistry("scenario")

@mechanism_factories.register("SNIP-AT")
def snip_at_mechanism(scenario) -> SnipAtScheduler:
    """The paper's SNIP-AT (all-time probing) mechanism for a scenario."""
    return SnipAtScheduler(
        scenario.profile,
        scenario.model,
        zeta_target=scenario.zeta_target,
        phi_max=scenario.phi_max,
    )


@mechanism_factories.register("SNIP-OPT")
def snip_opt_mechanism(scenario) -> SnipOptScheduler:
    """The paper's SNIP-OPT (optimal slot allocation) mechanism."""
    return SnipOptScheduler(
        scenario.profile,
        scenario.model,
        zeta_target=scenario.zeta_target,
        phi_max=scenario.phi_max,
    )


@mechanism_factories.register("SNIP-RH")
def snip_rh_mechanism(scenario) -> SnipRhScheduler:
    """The paper's SNIP-RH (rush-hour probing) mechanism."""
    return SnipRhScheduler(
        scenario.profile, scenario.model, initial_contact_length=2.0
    )
