"""End-to-end — rush hours emerge from mobility; SNIP-RH exploits them.

Nothing in this bench hand-marks a rush hour.  A commuter population
generates trips; trips generate per-sensor contacts; the *adaptive*
SNIP-RH learns each node's rush hours from its own probes and exploits
them — versus SNIP-AT sized for the same target on the same traces.
This closes the loop on the paper's whole premise: the diurnal structure
SNIP-RH needs really is produced by regular human mobility (Fig. 1 +
Fig. 3), and the mechanism finds it autonomously (§VII-B).
"""

import pytest
from conftest import emit

from repro.core.learning import LearnerConfig
from repro.core.schedulers.adaptive import AdaptiveSnipRhScheduler
from repro.core.schedulers.at import SnipAtScheduler
from repro.experiments.engine import resolve_engine
from repro.experiments.reporting import format_table
from repro.experiments.scenario import paper_roadside_scenario
from repro.network.agents import CommutePattern, Population
from repro.network.contacts import ContactExtractor
from repro.network.deployment import RoadDeployment
from repro.network.runner import NetworkResult, NodeOutcome
from repro.units import DAY

EPOCHS = 10
ROAD = 6000.0


def generate_network_run():
    deployment = RoadDeployment.evenly_spaced(3, ROAD, radio_range=14.0)
    # workdays_per_week=7 keeps every epoch statistically identical, as
    # in the paper's 24 h-epoch model.  With 5-day commuters a sensor
    # node should use Tepoch = 1 week (N = 168 slots) instead — with the
    # daily epoch, statically-marked rush hours burn energy on empty
    # weekend mornings (observable by flipping this parameter).
    population = Population(
        70, ROAD, seed=23,
        pattern=CommutePattern(errand_rate_per_day=0.4, workdays_per_week=7),
    )
    trips = population.trips(days=EPOCHS, epoch_length=DAY)
    report = ContactExtractor(deployment).extract(trips)
    scenario = paper_roadside_scenario(
        phi_max_divisor=100, zeta_target=16.0, epochs=EPOCHS, seed=1
    )

    def adaptive_factory(scn):
        return AdaptiveSnipRhScheduler(
            scn.profile, scn.model,
            learner_config=LearnerConfig(
                warmup_epochs=2, decay=0.9, ratio_threshold=1.5
            ),
            learning_duty_cycle=0.005,
            background_duty_cycle=0.0003,
            initial_contact_length=2.0,
        )

    def at_factory(scn):
        return SnipAtScheduler(
            scn.profile, scn.model,
            zeta_target=scn.zeta_target, phi_max=scn.phi_max,
        )

    def run_fleet(factory):
        # Every node runs its own scheduler on its own extracted trace.
        engine = resolve_engine("fast")
        fleet = NetworkResult()
        for node_id, trace in sorted(report.contacts_by_node.items()):
            result = engine.run(scenario, factory(scenario), trace=trace)
            fleet.outcomes[node_id] = NodeOutcome(node_id=node_id, result=result)
        return fleet

    return report, run_fleet(adaptive_factory), run_fleet(at_factory)


def test_network_end_to_end(once):
    report, adaptive, at = once(generate_network_run)
    rows = []
    for node_id in sorted(adaptive.outcomes):
        ours = adaptive.outcomes[node_id]
        theirs = at.outcomes[node_id]
        trace = report.contacts_by_node[node_id]
        rows.append(
            [
                node_id,
                len(trace),
                ours.zeta,
                ours.phi,
                theirs.zeta,
                theirs.phi,
                ours.delivery_ratio,
            ]
        )
    emit(
        format_table(
            [
                "node", "contacts",
                "RH-adaptive zeta", "RH-adaptive Phi",
                "AT zeta", "AT Phi", "RH delivery",
            ],
            rows,
            title=(
                "End-to-end: emergent rush hours from 70 commuters, "
                f"{EPOCHS} days, zeta_target = 16 s/day"
            ),
        )
    )
    def tail_rho(network, first_epoch):
        zeta = phi = 0.0
        for outcome in network.outcomes.values():
            for row in outcome.result.metrics.epochs[first_epoch:]:
                zeta += row.zeta
                phi += row.phi
        return phi / zeta if zeta else float("inf")

    # Whole-run economics include the adaptive scheduler's learning tax
    # (epochs 0-2 probe every slot); steady state excludes it.
    steady_adaptive = tail_rho(adaptive, 4)
    steady_at = tail_rho(at, 4)
    emit(
        f"fleet rho whole-run: adaptive-RH {adaptive.fleet_rho:.2f} vs AT "
        f"{at.fleet_rho:.2f}; steady-state (epochs 4+): "
        f"{steady_adaptive:.2f} vs {steady_at:.2f}; suppressed contacts "
        f"(sparse contention): {report.total_suppressed}"
    )
    # The rush-hour structure emerged and was exploited: comparable
    # capacity, and clearly cheaper probing once learning completes.
    assert adaptive.fleet_zeta > 0.7 * at.fleet_zeta
    assert adaptive.fleet_rho < at.fleet_rho
    assert steady_adaptive < 0.75 * steady_at
    # Every node delivered most of its data.
    assert adaptive.mean_delivery_ratio > 0.7
