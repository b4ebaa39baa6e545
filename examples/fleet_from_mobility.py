"""Fleet from mobility: rush hours emerge, every node learns its own.

The complete Fig.-1 pipeline with nothing hand-marked:

1. deploy three sensor nodes along a 6 km road;
2. simulate 80 commuters (plus errands) for two weeks — their trips
   *are* the mobility pattern;
3. extract per-node contact traces (sparse contention enforced);
4. run the adaptive SNIP-RH on every node: each learns its own rush
   hours from its own probes, then exploits them;
5. report fleet economics against SNIP-AT on the same traces, plus the
   lifetime implied by each mechanism's radio budget.

The adaptive factory registers itself under ``"adaptive-RH"`` in
``repro.experiments.registry.mechanism_factories``, next to the
pre-registered ``"SNIP-AT"``.  Every node runs in-process on its own
extracted trace through ``Engine.run(scenario, scheduler, trace=...)``,
and the per-node results are collected into a ``NetworkResult`` for the
fleet aggregates.  (A declarative fleet — a ``StudySpec`` with a
``network`` section, see ``examples/fleet_study.json`` — instead runs
each node as an ordinary cell on any transport and through the cell
cache; the registered name works there as ``network.node_factory``.)

Run::

    python examples/fleet_from_mobility.py
"""

from repro.core.learning import LearnerConfig
from repro.core.schedulers.adaptive import AdaptiveSnipRhScheduler
from repro.experiments.engine import resolve_engine
from repro.experiments.registry import mechanism_factories
from repro.experiments.reporting import format_table
from repro.experiments.scenario import paper_roadside_scenario
from repro.network import (
    CommutePattern,
    ContactExtractor,
    NetworkResult,
    NodeOutcome,
    Population,
    RoadDeployment,
)
from repro.radio.lifetime import LifetimeModel
from repro.units import DAY

ROAD = 6000.0
DAYS = 14


@mechanism_factories.register("adaptive-RH")
def adaptive_factory(scenario):
    """Adaptive SNIP-RH, one fresh instance per node."""
    return AdaptiveSnipRhScheduler(
        scenario.profile,
        scenario.model,
        learner_config=LearnerConfig(
            warmup_epochs=2, decay=0.9, ratio_threshold=1.5
        ),
        learning_duty_cycle=0.005,
        background_duty_cycle=0.0003,
        initial_contact_length=2.0,
    )


def run_fleet(scenario, traces_by_node, mechanism: str) -> NetworkResult:
    """Run the registered *mechanism* on every node's own trace."""
    factory = mechanism_factories.resolve(mechanism)
    engine = resolve_engine("fast")
    fleet = NetworkResult()
    for node_id, trace in sorted(traces_by_node.items()):
        result = engine.run(scenario, factory(scenario), trace=trace)
        fleet.outcomes[node_id] = NodeOutcome(node_id=node_id, result=result)
    return fleet


def main() -> None:
    deployment = RoadDeployment.evenly_spaced(3, ROAD, radio_range=14.0)
    print(f"deployment sparse (disjoint coverage): {deployment.is_sparse()}")
    population = Population(
        80, ROAD, seed=2,
        pattern=CommutePattern(errand_rate_per_day=0.5, workdays_per_week=7),
    )
    trips = population.trips(days=DAYS, epoch_length=DAY)
    report = ContactExtractor(deployment).extract(trips)
    print(
        f"{len(trips)} trips -> {report.total_contacts} contacts "
        f"({report.total_suppressed} lost to sparse contention)"
    )

    scenario = paper_roadside_scenario(
        phi_max_divisor=100, zeta_target=16.0, epochs=DAYS, seed=1
    )
    adaptive = run_fleet(scenario, report.contacts_by_node, "adaptive-RH")
    at = run_fleet(scenario, report.contacts_by_node, "SNIP-AT")

    rows = []
    for node_id in sorted(adaptive.outcomes):
        ours = adaptive.outcomes[node_id]
        theirs = at.outcomes[node_id]
        trace = report.contacts_by_node[node_id]
        busiest = sorted(
            range(24),
            key=lambda h: trace.slot_capacities(DAY, 24)[h],
            reverse=True,
        )[:4]
        rows.append(
            [
                node_id,
                len(trace),
                " ".join(f"{h:02d}" for h in sorted(busiest)),
                ours.zeta,
                ours.phi,
                theirs.phi,
                ours.delivery_ratio,
            ]
        )
    print()
    print(
        format_table(
            [
                "node", "contacts", "busiest hours",
                "RH zeta", "RH Phi", "AT Phi", "RH delivery",
            ],
            rows,
            title=f"Fleet of {len(deployment)} nodes, {DAYS} days, "
                  "adaptive SNIP-RH vs SNIP-AT",
        )
    )

    # What the probing budget means in battery life.
    lifetime = LifetimeModel()
    rh_days = lifetime.lifetime_days(adaptive.fleet_phi / len(adaptive))
    at_days = lifetime.lifetime_days(at.fleet_phi / len(at))
    print()
    print(f"fleet rho: adaptive-RH {adaptive.fleet_rho:.2f} vs AT {at.fleet_rho:.2f}")
    print(
        f"implied node lifetime at these probing budgets: "
        f"adaptive-RH {rh_days / 365.25:.1f} years vs AT {at_days / 365.25:.1f} years"
    )


if __name__ == "__main__":
    main()
