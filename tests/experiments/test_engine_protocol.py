"""Unit tests for the unified Engine protocol and named resolution.

The contract under test: every engine exposes
``run(scenario, scheduler, *, trace, streams) -> RunResult`` and is
resolved by name through the engine registry — in this process and,
critically, inside pool workers where a ``RunSpec`` arrives carrying
only the engine's name.
"""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments.engine import (
    PAPER_ENGINES,
    available_engines,
    resolve_engine,
)
from repro.experiments.micro import MicroEngine
from repro.experiments.parallel import (
    ParallelExecutor,
    ParallelFallbackWarning,
    Transport,
)
from repro.experiments.registry import engine_factories, mechanism_factories
from repro.experiments.runner import (
    FastEngine,
    FastRunner,
    RunSpec,
    execute_run_spec,
    generate_trace,
)
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.units import DAY


def tiny_scenario(**kwargs):
    kwargs.setdefault("phi_max_divisor", 100)
    kwargs.setdefault("zeta_target", 16.0)
    kwargs.setdefault("epochs", 1)
    kwargs.setdefault("seed", 3)
    return paper_roadside_scenario(**kwargs)


def at_scheduler(scenario):
    return mechanism_factories.resolve("SNIP-AT")(scenario)


def tiny_study(**overrides) -> StudySpec:
    """The SNIP-AT cell of :func:`tiny_scenario` as a one-cell study."""
    kwargs = dict(
        zeta_targets=(16.0,),
        phi_maxes=(DAY / 100.0,),
        epochs=1,
        seed=3,
        mechanisms=("SNIP-AT",),
        with_predictions=False,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


class TestRegistry:
    def test_paper_engines_registered(self):
        for name in PAPER_ENGINES:
            assert name in available_engines()

    def test_resolve_returns_protocol_shaped_instances(self):
        for name in PAPER_ENGINES:
            engine = resolve_engine(name)
            assert engine.name == name
            assert callable(engine.run)

    def test_resolve_returns_fresh_instances(self):
        assert resolve_engine("fast") is not resolve_engine("fast")

    def test_unknown_engine_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="engine"):
            resolve_engine("warp-drive")

    def test_builtin_classes_are_the_registered_factories(self):
        assert isinstance(resolve_engine("fast"), FastEngine)
        assert isinstance(resolve_engine("micro"), MicroEngine)
        assert "fast" in engine_factories and "micro" in engine_factories


class TestFastEngineIdentity:
    def test_engine_matches_historical_fast_runner(self):
        """The redesign must not move a single bit of the fast path."""
        scenario = tiny_scenario()
        legacy = FastRunner(scenario, at_scheduler(scenario)).run()
        modern = resolve_engine("fast").run(scenario, at_scheduler(scenario))
        assert modern.mean_zeta == legacy.mean_zeta
        assert modern.mean_phi == legacy.mean_phi
        assert modern.metrics.total_probed == legacy.metrics.total_probed
        assert list(generate_trace(modern.scenario)) == list(
            generate_trace(legacy.scenario)
        )
        assert [e.arrived_contacts for e in modern.metrics.epochs] == [
            e.arrived_contacts for e in legacy.metrics.epochs
        ]

    def test_spec_default_engine_is_fast(self):
        spec = RunSpec(scenario=tiny_scenario(), mechanism="SNIP-AT")
        assert spec.engine == "fast"
        scenario = tiny_scenario()
        legacy = FastRunner(scenario, at_scheduler(scenario)).run()
        assert execute_run_spec(spec).mean_zeta == legacy.mean_zeta


class TestSpecEngineRouting:
    def test_spec_routes_to_micro(self):
        scenario = tiny_scenario()
        spec = RunSpec(scenario=scenario, mechanism="SNIP-AT", engine="micro")
        via_spec = execute_run_spec(spec)
        direct = MicroEngine().run(scenario, at_scheduler(scenario))
        assert via_spec.mean_zeta == direct.mean_zeta
        assert via_spec.mean_phi == direct.mean_phi

    def test_engines_differ_on_purpose(self):
        # Sanity: the two engines are not secretly the same code path.
        scenario = tiny_scenario()
        fast = execute_run_spec(RunSpec(scenario=scenario, mechanism="SNIP-AT"))
        micro = execute_run_spec(
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine="micro")
        )
        assert fast.mean_zeta != micro.mean_zeta or fast.mean_phi != micro.mean_phi


class TestWorkerSideResolution:
    """Satellite: engine names resolve (and fail) correctly in workers."""

    def test_specs_with_engine_names_cross_the_pool(self):
        scenario = tiny_scenario()
        specs = [
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine=engine)
            for engine in ("fast", "micro", "fast", "micro")
        ]
        pool = ParallelExecutor(jobs=2)
        results = pool.map(execute_run_spec, specs)
        assert pool.last_map_parallel, "engine specs fell back to serial"
        assert results[0].mean_zeta == results[2].mean_zeta
        assert results[1].mean_zeta == results[3].mean_zeta

    def test_unknown_engine_raises_once_without_serial_rerun(self):
        """A bad engine name is a shard error, not a transport failure:
        it must propagate exactly once with no serial re-run (which
        would warn with ParallelFallbackWarning)."""
        scenario = tiny_scenario()
        specs = [
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine="warp-drive")
            for _ in range(4)
        ]
        pool = ParallelExecutor(jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            with pytest.raises(ConfigurationError, match="warp-drive"):
                pool.map(execute_run_spec, specs)

    def test_sweep_grid_rejects_unknown_engine_before_any_run(self):
        calls = []

        class CountingExecutor(Transport):
            """Records every dispatched shard (none must arrive)."""

            def imap(self, fn, items):
                for index, item in enumerate(items):
                    calls.append(item)
                    yield index, fn(item)

        with pytest.raises(ConfigurationError, match="sloth"):
            run_study(
                tiny_study(engines=("sloth",)), executor=CountingExecutor()
            )
        assert calls == []


class TestSweepGridEngineAxis:
    def test_grid_runs_on_micro_engine(self):
        grid = run_study(tiny_study(engines=("micro",))).grid()
        assert grid.engine == "micro"
        point = grid.budget(DAY / 100.0).points["SNIP-AT"][0]
        direct = MicroEngine().run(
            tiny_scenario(), at_scheduler(tiny_scenario())
        )
        assert point.zeta == direct.mean_zeta

    def test_default_engine_recorded_on_result(self):
        grid = run_study(tiny_study()).grid()
        assert grid.engine == "fast"
