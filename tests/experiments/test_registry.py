"""Named scheduler-factory registry: resolution across process boundaries.

The registry exists so that grid mechanisms and fleet node schedulers
can cross a process pool as *names* instead of (unpicklable) closures,
which would silently degrade the fan-out to serial.
"""

from __future__ import annotations

import pickle

import pytest

import dataclasses

from repro.core.schedulers.rh import SnipRhScheduler
from repro.errors import ConfigurationError
from repro.experiments.engine import resolve_engine
from repro.experiments.parallel import ParallelExecutor, Transport
from repro.experiments.registry import (
    PAPER_MECHANISMS,
    FactoryRegistry,
    mechanism_factories,
)
from repro.experiments.runner import RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import NetworkSection, StudySpec, run_study
from repro.network.runner import CommuterNodeSource, commuter_fleet_traces
from repro.units import DAY


@pytest.fixture
def scenario():
    return paper_roadside_scenario(phi_max_divisor=100, epochs=2, seed=9)


class TestFactoryRegistry:
    def test_builtins_registered_in_both_registries(self):
        # One registry serves grid mechanisms and fleet node schedulers.
        for name in PAPER_MECHANISMS:
            assert name in mechanism_factories
            fleet_spec(node_factory=name).validate_registry_names()

    def test_resolve_unknown_names_known(self):
        with pytest.raises(ConfigurationError, match="SNIP-RH"):
            mechanism_factories.resolve("nope")

    def test_register_direct_and_duplicate(self):
        registry = FactoryRegistry("test")
        registry.register("x", lambda s: None)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("x", lambda s: None)
        registry.register("x", lambda s: 1, replace=True)
        assert registry.resolve("x")(None) == 1
        assert "x" in registry and len(registry) == 1 and list(registry) == ["x"]

    def test_register_decorator_returns_function(self):
        registry = FactoryRegistry("test")

        @registry.register("decorated")
        def factory(scenario):
            return "built"

        assert factory is registry.resolve("decorated")
        assert registry.resolve("decorated")(None) == "built"

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            FactoryRegistry("test").register("", lambda s: None)

    def test_unregister(self):
        registry = FactoryRegistry("test")
        registry.register("gone", lambda s: None)
        registry.unregister("gone")
        assert "gone" not in registry
        with pytest.raises(ConfigurationError):
            registry.unregister("gone")


class TestNamedFactory:
    """A mechanism crosses process boundaries as its registry name."""

    def test_builds_scheduler_through_registry(self, scenario):
        factory = mechanism_factories.resolve("SNIP-RH")
        assert isinstance(factory(scenario), SnipRhScheduler)
        result = execute_run_spec(RunSpec(scenario=scenario, mechanism="SNIP-RH"))
        expected = resolve_engine("fast").run(scenario, factory(scenario))
        assert result.metrics == expected.metrics

    def test_pickles_as_a_name(self, scenario):
        node_scenario = dataclasses.replace(
            scenario,
            contact_source=CommuterNodeSource("sensor-1", nodes=2, commuters=10),
        )
        spec = RunSpec(scenario=node_scenario, mechanism="SNIP-RH")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert (
            execute_run_spec(clone).metrics.epochs
            == execute_run_spec(spec).metrics.epochs
        )

    def test_unknown_name_fails_at_call_time(self, scenario):
        spec = RunSpec(scenario=scenario, mechanism="missing")
        with pytest.raises(ConfigurationError, match="missing"):
            execute_run_spec(spec)


def fleet_spec(**network) -> StudySpec:
    """A two-day, three-node commuter fleet; *network* overrides the section."""
    return StudySpec(
        name="fleet-names",
        zeta_targets=(16.0,),
        phi_maxes=(DAY / 100.0,),
        epochs=2,
        seed=9,
        network=NetworkSection(**{"nodes": 3, "commuters": 12, **network}),
    )


def _explicit_rh(scenario):
    return SnipRhScheduler(
        scenario.profile, scenario.model, initial_contact_length=2.0
    )


class TestNetworkRunnerRegistryNames:
    """A fleet's ``network.node_factory`` is a mechanism registry name."""

    def test_name_matches_explicit_factory(self):
        spec = fleet_spec()
        named = run_study(spec).network
        scenario = spec.base_scenario()
        traces = commuter_fleet_traces(
            nodes=3, commuters=12, days=2, seed=scenario.seed
        )
        for node_id, trace in traces.items():
            explicit = resolve_engine("fast").run(
                scenario, _explicit_rh(scenario), trace=trace
            )
            outcome = named.outcomes[node_id]
            assert outcome.zeta == explicit.mean_zeta
            assert outcome.phi == explicit.mean_phi

    def test_named_factory_takes_the_pool_path(self):
        # A registry-named fleet fans out on a real pool — no silent
        # serial fallback.
        serial = run_study(fleet_spec()).network
        pool = ParallelExecutor(jobs=2)
        parallel = run_study(fleet_spec(), executor=pool).network
        assert pool.last_map_parallel
        for node_id, outcome in serial.outcomes.items():
            other = parallel.outcomes[node_id]
            assert outcome.zeta == other.zeta
            assert outcome.phi == other.phi
            assert outcome.delivery_ratio == other.delivery_ratio

    def test_unknown_name_fails_fast_in_parent(self):
        calls = []

        class CountingExecutor(Transport):
            def imap(self, fn, items):
                for index, item in enumerate(items):
                    calls.append(item)
                    yield index, fn(item)

        spec = fleet_spec(node_factory="NOT-A-FACTORY")
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            run_study(spec, executor=CountingExecutor())
        assert calls == []
        with pytest.raises(ConfigurationError, match="NOT-A-FACTORY"):
            StudySpec.from_dict(spec.to_dict())
