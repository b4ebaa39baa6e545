"""Fleet-level experiment runner.

Runs one scheduler instance per sensor node of a deployment against that
node's own contact trace (from the agent model or from files) and
aggregates the paper's metrics across the fleet.  Each node learns its
own profile — the paper's point that "sensor nodes are deployed at
different places and their contacts ... may follow different patterns".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Union

from ..core.schedulers.base import Scheduler
from ..errors import ConfigurationError
from ..experiments.engine import resolve_engine
from ..experiments.parallel import SerialExecutor, Transport
from ..experiments.registry import NamedFactory, node_factories
from ..experiments.runner import RunResult
from ..experiments.scenario import Scenario
from ..mobility.contact import ContactTrace

SchedulerFactory = Callable[[Scenario, str], Scheduler]

#: Streaming observer for fleet runs: ``progress(node_id, result,
#: completed, total)`` fires once per finished node, in completion
#: order — the per-node analogue of
#: :data:`repro.experiments.sweep.ProgressCallback`.
NodeProgressCallback = Callable[[str, RunResult, int, int], None]


def commuter_fleet_traces(
    *,
    nodes: int,
    commuters: int,
    days: int,
    seed: int,
    node_spacing: float = 2000.0,
    workdays_per_week: int = 7,
) -> Dict[str, ContactTrace]:
    """Per-node contact traces from a synthetic commuter population.

    The emergent-rush-hour demo scenario behind network
    :class:`~repro.experiments.spec.StudySpec` sections (e.g.
    ``examples/fleet_study.json``): *nodes* roadside sensors are evenly spaced along a road
    sized to *node_spacing* metres per gap, *commuters* agents make
    their daily trips for *days* days, and each node's contacts are
    extracted from the trips that pass it.  Pure function of its
    arguments (the population is seeded), so a study that names these
    numbers reproduces the same fleet anywhere.
    """
    from ..units import DAY
    from .agents import CommutePattern, Population
    from .contacts import ContactExtractor
    from .deployment import RoadDeployment

    road = node_spacing * (nodes + 1)
    deployment = RoadDeployment.evenly_spaced(nodes, road)
    population = Population(
        commuters, road, seed=seed,
        pattern=CommutePattern(workdays_per_week=workdays_per_week),
    )
    trips = population.trips(days=days, epoch_length=DAY)
    return ContactExtractor(deployment).extract(trips).contacts_by_node


def _run_node(item: tuple) -> RunResult:
    """Pool entry point: simulate one node against its own trace.

    Module-level so a process pool can pickle it by reference; each
    node's work is a pure function of (scenario, node_id, trace,
    factory, engine name), which makes per-node fan-out deterministic
    regardless of worker count or completion order.  The engine crosses
    the boundary as a registry name and is re-resolved worker-side,
    exactly like the scheduler factory.
    """
    scenario, node_id, trace, factory, engine_name = item
    scheduler = factory(scenario, node_id)
    return resolve_engine(engine_name).run(scenario, scheduler, trace=trace)


@dataclass
class NodeOutcome:
    """One node's run and headline metrics."""

    node_id: str
    result: RunResult

    @property
    def zeta(self) -> float:
        """Mean probed capacity per epoch."""
        return self.result.mean_zeta

    @property
    def phi(self) -> float:
        """Mean probing overhead per epoch."""
        return self.result.mean_phi

    @property
    def rho(self) -> float:
        """Per-unit probing cost."""
        return self.result.mean_rho

    @property
    def delivery_ratio(self) -> float:
        """Uploaded / generated data over the whole run."""
        buffer = self.result.node.buffer
        if buffer.total_generated == 0:
            return 1.0
        return buffer.total_uploaded / buffer.total_generated


@dataclass
class NetworkResult:
    """All node outcomes plus fleet aggregates."""

    outcomes: Dict[str, NodeOutcome] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def fleet_zeta(self) -> float:
        """Mean per-epoch probed capacity summed across the fleet."""
        return sum(outcome.zeta for outcome in self.outcomes.values())

    @property
    def fleet_phi(self) -> float:
        """Mean per-epoch probing overhead summed across the fleet."""
        return sum(outcome.phi for outcome in self.outcomes.values())

    @property
    def fleet_rho(self) -> float:
        """Fleet cost per probed second."""
        zeta = self.fleet_zeta
        return float("inf") if zeta == 0 else self.fleet_phi / zeta

    @property
    def mean_delivery_ratio(self) -> float:
        """Average per-node delivery ratio."""
        if not self.outcomes:
            return 0.0
        return sum(o.delivery_ratio for o in self.outcomes.values()) / len(
            self.outcomes
        )

    def worst_node(self) -> Optional[NodeOutcome]:
        """The node with the lowest delivery ratio (None when empty)."""
        if not self.outcomes:
            return None
        return min(self.outcomes.values(), key=lambda o: o.delivery_ratio)

    def to_dict(self) -> Dict[str, object]:
        """The fleet result as a JSON-clean document.

        One record per node (sorted by id) plus the fleet aggregates;
        non-finite values (an all-miss fleet's ρ) serialize as None so
        the document stays strict JSON.  Consumed by
        :meth:`repro.experiments.spec.StudyResult.to_dict`.
        """
        def clean(value: float) -> Optional[float]:
            return float(value) if math.isfinite(value) else None

        return {
            "nodes": {
                node_id: {
                    "contacts": len(outcome.result.trace),
                    "zeta": clean(outcome.zeta),
                    "phi": clean(outcome.phi),
                    "rho": clean(outcome.rho),
                    "delivery_ratio": clean(outcome.delivery_ratio),
                }
                for node_id, outcome in sorted(self.outcomes.items())
            },
            "fleet": {
                "zeta": clean(self.fleet_zeta),
                "phi": clean(self.fleet_phi),
                "rho": clean(self.fleet_rho),
                "mean_delivery_ratio": clean(self.mean_delivery_ratio),
            },
        }


class NetworkRunner:
    """Runs a scheduler per node over per-node traces."""

    def __init__(
        self,
        scenario: Scenario,
        traces_by_node: Mapping[str, ContactTrace],
        scheduler_factory: Union[str, SchedulerFactory],
        *,
        engine: str = "fast",
    ) -> None:
        """*scheduler_factory* is a callable ``(scenario, node_id) ->
        Scheduler`` or the name of a factory registered in
        :data:`repro.experiments.registry.node_factories`.  Names
        resolve to a picklable
        :class:`~repro.experiments.registry.NamedFactory`, so a named
        fleet fans out over a real process pool instead of silently
        degrading to serial (closures cannot cross the boundary).
        *engine* selects each node's simulation backend by
        engine-registry name (``"fast"`` default, ``"micro"`` for
        short cycle-accurate fleets; see
        :mod:`repro.experiments.engine`) and crosses process boundaries
        the same way.  Unknown names — factory or engine — fail fast
        here, not in a worker.
        """
        if not traces_by_node:
            raise ConfigurationError("need at least one node trace")
        resolve_engine(engine)  # fail fast on unknown engine names
        if isinstance(scheduler_factory, str):
            registered = node_factories.resolve(scheduler_factory)  # fail fast
            scheduler_factory = NamedFactory(
                scheduler_factory,
                kind="node",
                # Spawn-start workers import this to replay a runtime
                # registration that fork would have inherited for free.
                module=getattr(registered, "__module__", None),
            )
        self.scenario = scenario
        self.traces_by_node = dict(traces_by_node)
        self.scheduler_factory = scheduler_factory
        self.engine = engine

    def run(
        self,
        *,
        executor: Optional[Transport] = None,
        progress: Optional[NodeProgressCallback] = None,
    ) -> NetworkResult:
        """Run every node on *executor*; returns the aggregated result.

        *executor* is any transport (in-process when None); a network
        study builds it from its spec's execution section with
        :meth:`~repro.experiments.spec.StudySpec.build_transport`, like
        every other study.  Nodes are independent (each owns its trace
        and scheduler) and results are reassembled by node index, so
        the aggregate is identical for any backend, worker count, or
        completion order.  Scheduler factories that cannot be pickled
        (e.g. lambdas) run serially with a
        :class:`~repro.experiments.parallel.ParallelFallbackWarning`;
        registry-named factories (see ``__init__``) avoid the fallback.

        *progress* (a :data:`NodeProgressCallback`) streams finished
        nodes through the executor's ``imap`` path as they complete,
        exactly like grid cells stream through
        :func:`~repro.experiments.spec.run_study`.
        """
        executor = executor if executor is not None else SerialExecutor()
        ordered = sorted(self.traces_by_node.items())
        items = [
            (self.scenario, node_id, trace, self.scheduler_factory, self.engine)
            for node_id, trace in ordered
        ]
        results: Dict[int, RunResult] = {}
        completed = 0
        for index, result in executor.imap(_run_node, items):
            results[index] = result
            completed += 1
            if progress is not None:
                progress(ordered[index][0], result, completed, len(items))
        network = NetworkResult()
        for index, (node_id, _trace) in enumerate(ordered):
            network.outcomes[node_id] = NodeOutcome(
                node_id=node_id, result=results[index]
            )
        return network
