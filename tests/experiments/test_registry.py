"""Named scheduler-factory registry: resolution across process boundaries.

The registry exists so that per-node schedulers and custom mechanisms
can cross a process pool as *names* instead of (unpicklable) closures —
the fix for ``NetworkRunner`` silently degrading to serial fan-out.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.schedulers.rh import SnipRhScheduler
from repro.errors import ConfigurationError
from repro.experiments.parallel import ParallelExecutor
from repro.experiments.registry import (
    PAPER_MECHANISMS,
    FactoryRegistry,
    NamedFactory,
    mechanism_factories,
    node_factories,
)
from repro.experiments.scenario import paper_roadside_scenario
from repro.mobility.contact import Contact, ContactTrace
from repro.network.runner import NetworkRunner


@pytest.fixture
def scenario():
    return paper_roadside_scenario(phi_max_divisor=100, epochs=2, seed=9)


class TestFactoryRegistry:
    def test_builtins_registered_in_both_registries(self):
        for name in PAPER_MECHANISMS:
            assert name in mechanism_factories
            assert name in node_factories

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
    def test_builds_scheduler_through_registry(self, scenario):
        factory = NamedFactory("SNIP-RH", kind="mechanism")
        assert isinstance(factory(scenario), SnipRhScheduler)

    def test_node_kind_takes_node_id(self, scenario):
        factory = NamedFactory("SNIP-RH", kind="node")
        assert isinstance(factory(scenario, "node-7"), SnipRhScheduler)

    def test_pickles_as_a_name(self, scenario):
        factory = NamedFactory("SNIP-RH", kind="node")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert isinstance(clone(scenario, "n"), SnipRhScheduler)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            NamedFactory("SNIP-RH", kind="galaxy")

    def test_unknown_name_fails_at_call_time(self, scenario):
        factory = NamedFactory("missing", kind="mechanism")
        with pytest.raises(ConfigurationError, match="missing"):
            factory(scenario)


def _traces():
    def trace(offset):
        return ContactTrace(
            contacts=[
                Contact(start=3600.0 * k + offset, length=2.0, mobile_id=f"m{k}")
                for k in range(1, 20)
            ]
        )

    return {"node-a": trace(0.0), "node-b": trace(120.0), "node-c": trace(777.0)}


def _explicit_rh(scenario, node_id):
    return SnipRhScheduler(
        scenario.profile, scenario.model, initial_contact_length=2.0
    )


class TestNetworkRunnerRegistryNames:
    def test_name_matches_explicit_factory(self, scenario):
        named = NetworkRunner(scenario, _traces(), "SNIP-RH").run()
        explicit = NetworkRunner(scenario, _traces(), _explicit_rh).run()
        for node_id, outcome in named.outcomes.items():
            other = explicit.outcomes[node_id]
            assert outcome.zeta == other.zeta
            assert outcome.phi == other.phi

    def test_named_factory_takes_the_pool_path(self, scenario):
        # The acceptance criterion: a registry-named fleet fans out on a
        # real pool — no silent serial fallback.
        runner = NetworkRunner(scenario, _traces(), "SNIP-RH")
        serial = runner.run()
        pool = ParallelExecutor(jobs=2)
        parallel = runner.run(executor=pool)
        assert pool.last_map_parallel
        for node_id, outcome in serial.outcomes.items():
            other = parallel.outcomes[node_id]
            assert outcome.zeta == other.zeta
            assert outcome.phi == other.phi
            assert outcome.delivery_ratio == other.delivery_ratio

    def test_unknown_name_fails_fast_in_parent(self, scenario):
        with pytest.raises(ConfigurationError, match="unknown node scheduler"):
            NetworkRunner(scenario, _traces(), "NOT-A-FACTORY")
