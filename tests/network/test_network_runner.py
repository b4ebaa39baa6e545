"""Fleet studies: one ordinary cell per sensor node.

A ``network`` section lowers onto :class:`RunSpec` shards whose scenario
draws its contacts from a :class:`CommuterNodeSource`, so a fleet runs
through ``execute_run_spec`` on every transport and through the cell
cache like any grid.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.engine import resolve_engine
from repro.experiments.parallel import ParallelExecutor, SerialExecutor
from repro.experiments.registry import mechanism_factories
from repro.experiments.runner import FastRunner
from repro.experiments.spec import NetworkSection, StudySpec, run_study
from repro.experiments.transport import resolve_transport
from repro.network import runner as network_runner
from repro.network.runner import (
    CommuterNodeSource,
    NetworkResult,
    NodeOutcome,
    commuter_fleet_traces,
)
from repro.units import DAY


def fleet_spec(**overrides) -> StudySpec:
    """A small fleet: 3 nodes, 20 commuters, 2 days."""
    kwargs = dict(
        name="fleet",
        zeta_targets=(24.0,),
        phi_maxes=(DAY / 100.0,),
        epochs=2,
        seed=21,
        network=NetworkSection(nodes=3, commuters=20),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


@pytest.fixture(scope="module")
def network_result():
    return run_study(fleet_spec()).network


class TestNetworkRunner:
    def test_one_outcome_per_node(self, network_result):
        assert len(network_result) == 3
        assert set(network_result.outcomes) == {
            "sensor-0", "sensor-1", "sensor-2"
        }

    def test_fleet_aggregates_are_sums(self, network_result):
        zeta = sum(o.zeta for o in network_result.outcomes.values())
        assert network_result.fleet_zeta == pytest.approx(zeta)
        assert network_result.fleet_rho == pytest.approx(
            network_result.fleet_phi / network_result.fleet_zeta
        )

    def test_delivery_ratio_bounded(self, network_result):
        for outcome in network_result.outcomes.values():
            assert 0.0 <= outcome.delivery_ratio <= 1.0
        assert 0.0 <= network_result.mean_delivery_ratio <= 1.0

    def test_worst_node_is_minimum(self, network_result):
        worst = network_result.worst_node()
        assert worst.delivery_ratio == min(
            o.delivery_ratio for o in network_result.outcomes.values()
        )

    def test_per_node_budget_invariant(self, network_result):
        for outcome in network_result.outcomes.values():
            for row in outcome.result.metrics.epochs:
                assert row.phi <= outcome.result.scenario.phi_max + 1e-6

    def test_empty_traces_rejected(self):
        # A fleet needs at least one node.
        with pytest.raises(ConfigurationError, match="network.nodes"):
            NetworkSection(nodes=0)

    def test_empty_network_result_helpers(self):
        empty = NetworkResult()
        assert empty.worst_node() is None
        assert empty.mean_delivery_ratio == 0.0
        assert empty.fleet_rho == float("inf")


class TestNodeOutcomeMetrics:
    """Node metrics read only ``result.metrics``, yet report what the
    node's own counters say."""

    @pytest.mark.parametrize("engine", ["fast", "micro", "vector"])
    def test_metrics_match_the_node_and_trace(self, engine):
        spec = fleet_spec(epochs=1)
        scenario = spec.base_scenario()
        traces = commuter_fleet_traces(
            nodes=3, commuters=20, days=1, seed=scenario.seed
        )
        trace = traces["sensor-1"]
        factory = mechanism_factories.resolve("SNIP-RH")
        result = resolve_engine(engine).run(scenario, factory(scenario), trace=trace)
        outcome = NodeOutcome(node_id="sensor-1", result=result)
        assert outcome.contacts == len(trace)
        # Every engine generates data at the scenario rate over the
        # whole horizon.
        uploaded = sum(epoch.uploaded for epoch in result.metrics.epochs)
        horizon = scenario.epochs * scenario.profile.epoch_length
        assert uploaded / outcome.delivery_ratio == pytest.approx(
            scenario.data_rate * horizon, rel=1e-12
        )
        if engine == "micro":
            return
        # fast and vector share one buffer arithmetic: the fast runner's
        # node is both engines' node.
        runner = FastRunner(scenario, factory(scenario), trace=trace)
        runner.run()
        buffer = runner.node.buffer
        assert outcome.delivery_ratio == pytest.approx(
            buffer.total_uploaded / buffer.total_generated, rel=1e-12
        )


class TestNetworkEngines:
    """Each node's engine resolves by registry name."""

    def test_unknown_engine_fails_fast(self):
        spec = fleet_spec(engines=("warp",))
        with pytest.raises(ConfigurationError, match="engine"):
            run_study(spec, executor=SerialExecutor())

    def test_micro_engine_fleet_differs_from_fast(self):
        section = NetworkSection(nodes=1, commuters=20)
        fast = run_study(fleet_spec(epochs=1, network=section)).network
        micro = run_study(
            fleet_spec(epochs=1, network=section, engines=("micro",))
        ).network
        assert set(fast.outcomes) == set(micro.outcomes) == {"sensor-0"}
        # Same trace, different fidelity: results are close but the
        # engines are genuinely different code paths.
        assert micro.fleet_zeta == pytest.approx(fast.fleet_zeta, rel=0.5)
        assert micro.fleet_zeta != fast.fleet_zeta

    def test_named_engine_crosses_the_pool(self):
        spec = fleet_spec(
            epochs=1,
            engines=("micro",),
            network=NetworkSection(nodes=2, commuters=20),
        )
        pool = ParallelExecutor(jobs=2)
        pooled = run_study(spec, executor=pool).network
        assert pool.last_map_parallel, "micro fleet fell back to serial"
        serial = run_study(spec).network
        for node_id, outcome in serial.outcomes.items():
            assert pooled.outcomes[node_id].zeta == outcome.zeta


class TestCommuterNodeSource:
    def test_generate_returns_the_nodes_fleet_trace(self):
        scenario = fleet_spec().base_scenario()
        traces = commuter_fleet_traces(
            nodes=3, commuters=20, days=scenario.epochs, seed=scenario.seed
        )
        for node_id, trace in traces.items():
            source = CommuterNodeSource(node_id, nodes=3, commuters=20)
            assert list(source.generate(scenario, None)) == list(trace)

    def test_fleet_is_built_once_per_process(self):
        network_runner._memoized_fleet.cache_clear()
        run_study(fleet_spec(epochs=1))
        info = network_runner._memoized_fleet.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_vector_fleet_equals_fast(self):
        # The vector engine memoizes traces keyed on the (hashable)
        # source; its gated metrics equal the fast runner's exactly.
        fast = run_study(fleet_spec()).network.to_dict()["nodes"]
        vector = run_study(fleet_spec(engines=("vector",))).network
        for node_id, row in vector.to_dict()["nodes"].items():
            for key in ("contacts", "zeta", "phi", "rho"):
                assert row[key] == fast[node_id][key]


class TestFleetCells:
    def test_cached_rerun_replays_every_node(self, tmp_path):
        spec = fleet_spec(epochs=1, cache=str(tmp_path / "cells"))
        cold = run_study(spec)
        assert (cold.cells_cached, cold.cells_computed) == (0, 3)
        warm = run_study(spec)
        assert (warm.cells_cached, warm.cells_computed) == (3, 0)
        assert warm.to_json() == cold.to_json()

    def test_transports_give_byte_identical_artifacts(self):
        spec = fleet_spec(epochs=1)
        serial = run_study(spec).network.to_dict()
        pool = ParallelExecutor(jobs=2)
        pooled = run_study(spec, executor=pool).network.to_dict()
        assert pool.last_map_parallel
        queue = resolve_transport("file-queue", jobs=2, options={"workers": 2})
        queued = run_study(spec, executor=queue).network.to_dict()
        expected = json.dumps(serial)
        assert json.dumps(pooled) == expected
        assert json.dumps(queued) == expected
