"""Fleet studies: per-node commuter traces and the fleet result.

The paper's Fig. 1 deployment puts several sensor nodes along one road,
and each node learns its own profile — "sensor nodes are deployed at
different places and their contacts ... may follow different patterns".
A fleet study is therefore one ordinary cell per node:
:func:`~repro.experiments.spec.run_study` lowers a ``network`` section
onto :class:`~repro.experiments.runner.RunSpec` shards whose scenario
draws its contacts from a :class:`CommuterNodeSource`, so every node
runs through :func:`~repro.experiments.runner.execute_run_spec` on any
transport and through the cell cache, like a grid cell.  This module
holds the commuter fleet, that contact source, and the per-node and
fleet aggregates (:class:`NodeOutcome`, :class:`NetworkResult`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional

from ..mobility.contact import ContactTrace
from ..units import DAY
from .agents import CommutePattern, Population
from .contacts import ContactExtractor
from .deployment import RoadDeployment

if TYPE_CHECKING:  # pragma: no cover - type-only
    from ..experiments.runner import RunResult

#: Metres of road per gap between neighbouring sensor nodes.
_NODE_SPACING = 2000.0


def _deployment(nodes: int, node_spacing: float) -> RoadDeployment:
    """*nodes* sensors evenly spaced along a road sized to fit them."""
    return RoadDeployment.evenly_spaced(nodes, node_spacing * (nodes + 1))


def commuter_fleet_traces(
    *,
    nodes: int,
    commuters: int,
    days: int,
    seed: int,
    node_spacing: float = _NODE_SPACING,
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
    deployment = _deployment(nodes, node_spacing)
    population = Population(
        commuters, deployment.road_length, seed=seed,
        pattern=CommutePattern(workdays_per_week=workdays_per_week),
    )
    trips = population.trips(days=days, epoch_length=DAY)
    return ContactExtractor(deployment).extract(trips).contacts_by_node


@lru_cache(maxsize=4)
def _memoized_fleet(
    nodes: int, commuters: int, days: int, seed: int
) -> Dict[str, ContactTrace]:
    """:func:`commuter_fleet_traces`, built once per process per fleet.

    Every node cell of one study needs the same population, and building
    it dominates a small node's run, so the node cells share one build.
    Callers treat the returned traces as read-only, like every engine.
    """
    return commuter_fleet_traces(
        nodes=nodes, commuters=commuters, days=days, seed=seed
    )


@dataclass(frozen=True)
class CommuterNodeSource:
    """Scenario contact source: one node's trace from a commuter fleet.

    The fleet is :func:`commuter_fleet_traces` over ``scenario.epochs``
    days seeded by ``scenario.seed``; this source returns node
    *node_id*'s trace from it.  Frozen and hashable, so the cell cache
    fingerprints it by value and the vector engine's trace memo keys on
    it.
    """

    node_id: str
    nodes: int
    commuters: int

    def generate(self, scenario, streams) -> ContactTrace:
        """This node's trace over the scenario horizon (streams unused)."""
        del streams  # the population is seeded by the scenario itself
        fleet = _memoized_fleet(
            self.nodes, self.commuters, scenario.epochs, scenario.seed
        )
        return fleet[self.node_id]


def commuter_node_sources(nodes: int, commuters: int) -> List[CommuterNodeSource]:
    """One :class:`CommuterNodeSource` per node of the fleet, by node id.

    Reads only the deployment's node ids: no population is built.
    """
    node_ids = sorted(site.node_id for site in _deployment(nodes, _NODE_SPACING))
    return [
        CommuterNodeSource(node_id, nodes, commuters) for node_id in node_ids
    ]


@dataclass
class NodeOutcome:
    """One node's run and headline metrics.

    *result* is the node's cell outcome (scenario and per-epoch
    metrics), the same type whether it was computed or replayed from
    the cell cache; every metric here derives from ``result.metrics``.
    """

    node_id: str
    result: "RunResult"

    @property
    def contacts(self) -> int:
        """Contacts that arrived at the node over the run."""
        return sum(epoch.arrived_contacts for epoch in self.result.metrics.epochs)

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
        """Uploaded / generated data over the whole run.

        The node's buffer is uncapped, so everything generated was either
        uploaded or is still buffered at the end of the last epoch.
        """
        epochs = self.result.metrics.epochs
        uploaded = sum(epoch.uploaded for epoch in epochs)
        generated = uploaded + (epochs[-1].buffer_end_level if epochs else 0.0)
        if generated == 0:
            return 1.0
        return uploaded / generated


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
                    "contacts": outcome.contacts,
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
