"""Tests for the named-scenario registry — the fifth study axis.

The contract under test: ``axes.scenarios`` entries resolve through
``scenario_factories`` in any process, specs omitting the axis stay
byte-identical to the pre-axis artifact shape, and a multi-scenario
study is byte-identical across jobs=1/4/shuffled and across the serial
and file-queue transports (the same purity pin every other axis
carries).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import ParallelExecutor, SerialExecutor, Transport
from repro.experiments.registry import scenario_factories
from repro.experiments.runner import RunSpec, generate_trace
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.scenarios import (
    DEFAULT_SCENARIO,
    ScenarioRef,
    available_scenarios,
    materialize_scenario,
    resolve_scenario,
)
from repro.scenarios.fleet import FleetClass, MixedFleetSource
from repro.sim.rng import RandomStreams
from repro.units import DAY

BUILTINS = (
    "paper-roadside",
    "diurnal",
    "trace-driven",
    "mixed-fleet",
    "flash-crowd",
    "dead-zone",
    "churn",
)

#: A cheap non-default axis: four named workloads, no file dependency.
FOUR_SCENARIOS = (
    "paper-roadside",
    {"name": "diurnal", "options": {"ratio": 12.0}},
    "flash-crowd",
    "dead-zone",
)


class ShuffledExecutor(Transport):
    """Runs shards in a scrambled order; results still index-aligned."""

    def __init__(self, shuffle_seed: int = 4321) -> None:
        self.shuffle_seed = shuffle_seed

    def imap(self, fn, items):
        """Yield (index, result) pairs in the scrambled order."""
        items = list(items)
        order = list(range(len(items)))
        random.Random(self.shuffle_seed).shuffle(order)
        for index in order:
            yield index, fn(items[index])


def small_spec(**overrides) -> StudySpec:
    """A 1 target x 1 budget x 3 mechanism study, short horizon."""
    kwargs = dict(
        name="scenario-small",
        zeta_targets=(16.0,),
        phi_maxes=(DAY / 1000.0,),
        epochs=1,
        seed=9,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_scenarios()
        for name in BUILTINS:
            assert name in names
        assert names == sorted(names)

    def test_resolve_unknown_name_is_loud(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            resolve_scenario("rush-hour-from-mars")

    def test_factories_resolve_in_a_fresh_registry_walk(self):
        # The worker path: resolution by name, never by closure.
        for name in BUILTINS:
            assert scenario_factories.resolve(name) is resolve_scenario(name)

    def test_paper_roadside_materializes_the_paper_scenario(self):
        ref = ScenarioRef(DEFAULT_SCENARIO)
        built = materialize_scenario(ref, epochs=3, seed=7)
        assert built == paper_roadside_scenario(epochs=3, seed=7)

    def test_bad_options_name_the_scenario(self):
        ref = ScenarioRef("diurnal", {"raito": 12})
        with pytest.raises(ConfigurationError, match="'diurnal'"):
            materialize_scenario(ref)


class TestScenarioRef:
    def test_bare_name_round_trips(self):
        ref = ScenarioRef.from_entry("diurnal")
        assert ref.to_entry() == "diurnal"
        assert ref.label == "diurnal"

    def test_options_round_trip_key_sorted(self):
        ref = ScenarioRef.from_entry(
            {"name": "diurnal", "options": {"ratio": 12.0, "peaks": [8, 18]}}
        )
        assert ref.to_entry() == {
            "name": "diurnal",
            "options": {"peaks": [8, 18], "ratio": 12.0},
        }
        assert ref.label == 'diurnal{"peaks":[8,18],"ratio":12.0}'

    def test_tuple_and_list_options_compare_equal(self):
        assert ScenarioRef("diurnal", {"peaks": (8, 18)}) == ScenarioRef(
            "diurnal", {"peaks": [8, 18]}
        )

    def test_unknown_entry_key_is_loud(self):
        with pytest.raises(
            ConfigurationError, match=r"axes\.scenarios\[0\].*'option'"
        ):
            ScenarioRef.from_entry(
                {"name": "diurnal", "option": {}}, where="axes.scenarios[0]"
            )

    def test_missing_name_is_loud(self):
        with pytest.raises(ConfigurationError, match="missing 'name'"):
            ScenarioRef.from_entry({"options": {}})

    def test_non_json_option_value_is_loud(self):
        with pytest.raises(ConfigurationError, match="JSON-clean"):
            ScenarioRef("diurnal", {"peaks": {8, 18}})


class TestSpecAxis:
    def test_default_axis_is_omitted_from_the_document(self):
        # The byte-identity pin: pre-axis specs and artifacts never
        # mention scenarios.
        document = small_spec().to_dict()
        assert "scenarios" not in document["axes"]
        assert small_spec() == small_spec(scenarios=("paper-roadside",))

    def test_explicit_axis_round_trips(self):
        spec = small_spec(scenarios=FOUR_SCENARIOS)
        assert StudySpec.from_dict(spec.to_dict()) == spec
        assert json.loads(spec.to_json())["axes"]["scenarios"][0] == (
            "paper-roadside"
        )

    def test_bad_entry_names_the_axis_position(self):
        with pytest.raises(
            ConfigurationError, match=r"axes\.scenarios\[1\]"
        ):
            small_spec(scenarios=("diurnal", {"nam": "flash-crowd"}))

    def test_unknown_scenario_name_fails_at_validation(self):
        spec = small_spec(scenarios=("diurnal", "nope"))
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            spec.validate_registry_names()

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            small_spec(scenarios=("diurnal", "diurnal"))

    def test_total_runs_scales_with_the_axis(self):
        assert small_spec(scenarios=FOUR_SCENARIOS).total_runs == (
            4 * small_spec().total_runs
        )

    def test_set_override_reaches_the_axis(self):
        spec = small_spec().with_overrides(
            {"axes.scenarios": ["diurnal", "flash-crowd"]}
        )
        assert spec.scenario_labels() == ("diurnal", "flash-crowd")


class TestRunStudy:
    def run(self, executor=None, **overrides):
        return run_study(
            small_spec(scenarios=FOUR_SCENARIOS, **overrides),
            executor=executor,
        )

    def test_default_axis_artifact_is_unchanged(self):
        # Omitting the axis gives the historical single-grid document:
        # engine-name keys, no scenario tags, no scenario CSV column.
        study = run_study(small_spec())
        assert sorted(study.grids) == ["fast"]
        assert study.grid().scenario is None
        assert "scenario" not in json.dumps(study.grid().to_dict())
        assert study.to_csv().splitlines()[0].startswith("engine,")

    def test_grids_are_keyed_per_scenario(self):
        study = self.run()
        labels = small_spec(scenarios=FOUR_SCENARIOS).scenario_labels()
        assert sorted(study.grids) == sorted(
            f"fast@{label}" for label in labels
        )
        for label in labels:
            assert study.grid("fast", label).scenario == label
        assert study.to_csv().splitlines()[0].startswith("scenario,")

    def test_byte_identical_across_jobs_and_order(self):
        baseline = self.run(SerialExecutor()).to_json()
        assert self.run(ParallelExecutor(jobs=4)).to_json() == baseline
        assert self.run(ShuffledExecutor()).to_json() == baseline

    def test_byte_identical_across_transports(self, tmp_path):
        def payload(study):
            # The execution section legitimately differs (jobs,
            # transport); the computed grids must not.
            return json.dumps(
                {key: grid.to_dict() for key, grid in study.grids.items()}
            )

        baseline = self.run()
        queued = self.run(
            transport="file-queue",
            jobs=2,
            transport_options={
                "queue_dir": str(tmp_path / "q"),
                "workers": 2,
                "poll_interval": 0.05,
            },
        )
        assert payload(queued) == payload(baseline)
        assert queued.to_csv() == baseline.to_csv()

    def test_scenarios_actually_change_results(self):
        study = self.run()
        cells = {
            key: grid.budget(DAY / 1000.0).series("phi")["SNIP-RH"]
            for key, grid in study.grids.items()
        }
        assert len({json.dumps(v) for v in cells.values()}) > 1

    def test_agreements_are_keyed_per_scenario(self):
        study = run_study(
            small_spec(
                scenarios=("paper-roadside", "flash-crowd"),
                engines=("fast", "vector"),
                replicates=2,
                with_predictions=False,
            )
        )
        assert sorted(study.agreements) == [
            "vector@flash-crowd",
            "vector@paper-roadside",
        ]


class TestVectorParity:
    def test_vector_agrees_with_fast_on_diurnal(self):
        # The vector engine vectorizes every profile-driven workload;
        # paired replicates on the diurnal scenario must match the fast
        # engine closely (same traces, same mechanisms).
        study = run_study(
            small_spec(
                scenarios=({"name": "diurnal", "options": {"ratio": 12.0}},),
                engines=("fast", "vector"),
                replicates=2,
                with_predictions=False,
            )
        )
        agreement = study.agreements["vector"]
        assert agreement.max_abs_delta("mean_zeta") < 1.0


class TestEveryBuiltinOnVector:
    """Every built-in workload runs end to end as a 1-epoch, one-target
    ``vector`` study; the trace-driven one replays a synthesized CSV."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_one_epoch_study_produces_cells(self, tmp_path, name):
        entry = name
        if name == "trace-driven":
            path = tmp_path / "contacts.csv"
            path.write_text("start,end,mobile_id\n" + "".join(
                f"{60 * k},{60 * k + 2.5},mobile-{k % 97}\n" for k in range(1440)
            ))
            entry = {"name": name, "options": {"path": str(path)}}
        spec = StudySpec(
            name="builtin-smoke",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 1000.0,),
            epochs=1,
            seed=5,
            engines=("vector",),
            scenarios=(entry,),
            with_predictions=False,
        )
        (grid,) = run_study(spec).grids.values()
        rows = grid.cell_rows()
        assert len(rows) == spec.total_runs == 3
        assert all(row["zeta"] >= 0 for row in rows)


class TestGeneratedWorkloads:
    def materialize(self, name, **options):
        return materialize_scenario(
            ScenarioRef(name, options), epochs=1, seed=3
        )

    def test_mixed_fleet_trace_is_deterministic_and_sorted(self):
        scenario = self.materialize("mixed-fleet")
        first = generate_trace(scenario)
        second = generate_trace(scenario)
        assert [c.start for c in first] == [c.start for c in second]
        starts = [c.start for c in first]
        assert starts == sorted(starts)
        for earlier, later in zip(first, list(first)[1:]):
            assert later.start >= earlier.end  # non-overlap invariant

    def test_mixed_fleet_is_class_order_independent(self):
        classes = (
            {"name": "a", "style": "poisson", "mean_interval": 900.0,
             "mean_length": 4.0},
            {"name": "b", "style": "normal", "mean_interval": 1200.0,
             "mean_length": 3.0},
        )
        forward = generate_trace(
            materialize_scenario(
                ScenarioRef("mixed-fleet", {"classes": classes}),
                epochs=1, seed=3,
            )
        )
        backward = generate_trace(
            materialize_scenario(
                ScenarioRef("mixed-fleet", {"classes": classes[::-1]}),
                epochs=1, seed=3,
            )
        )
        assert [c.start for c in forward] == [c.start for c in backward]

    def test_fleet_class_validation_is_loud(self):
        with pytest.raises(ConfigurationError, match="style"):
            FleetClass(name="x", style="brownian", mean_interval=600.0,
                       mean_length=2.0)
        with pytest.raises(ConfigurationError, match="distinct"):
            MixedFleetSource(classes=(
                FleetClass(name="x", style="poisson", mean_interval=600.0,
                           mean_length=2.0),
                FleetClass(name="x", style="normal", mean_interval=900.0,
                           mean_length=2.0),
            ))

    def test_dead_zone_has_no_contacts_inside_the_window(self):
        scenario = self.materialize("dead-zone", dead_windows=[[10.0, 14.0]])
        trace = generate_trace(scenario)
        assert len(trace) > 0
        for contact in trace:
            hour = (contact.start % DAY) / 3600.0
            assert not (10.0 <= hour < 14.0)

    def test_flash_crowd_concentrates_contacts(self):
        scenario = self.materialize(
            "flash-crowd", crowd_start=12.0, crowd_duration=0.5, intensity=60
        )
        trace = generate_trace(scenario)
        inside = sum(
            1 for c in trace if 12.0 <= (c.start % DAY) / 3600.0 < 12.5
        )
        assert inside > len(trace) / 2

    def test_diurnal_ratio_must_cover_the_baseline(self):
        with pytest.raises(ConfigurationError, match="ratio"):
            self.materialize("diurnal", ratio=0.5)

    def test_profiles_differ_from_the_paper_workload(self):
        paper = paper_roadside_scenario(epochs=1, seed=3)
        for name in ("diurnal", "flash-crowd", "dead-zone"):
            assert self.materialize(name).profile != paper.profile

    def test_churn_drifts_across_epochs(self):
        scenario = materialize_scenario(
            ScenarioRef("churn"), epochs=2, seed=3
        )
        assert scenario.trace_config.rate_drift_cv > 0
        assert scenario.trace_config.rush_shift_per_epoch > 0
        assert math.isfinite(generate_trace(scenario).total_capacity)


class TestCacheFingerprint:
    def spec_for(self, ref):
        scenario = materialize_scenario(ref, epochs=1, seed=3)
        return RunSpec(
            scenario=scenario.with_budget(DAY / 1000.0).with_target(16.0),
            mechanism="SNIP-RH",
            engine="fast",
            scenario_ref=ref,
        )

    def test_named_scenarios_are_cacheable_and_distinct(self):
        from repro.cache.keys import cache_key

        plain = cache_key(self.spec_for(ScenarioRef("diurnal")))
        tuned = cache_key(
            self.spec_for(ScenarioRef("diurnal", {"ratio": 12.0}))
        )
        other = cache_key(self.spec_for(ScenarioRef("flash-crowd")))
        assert plain and tuned and other
        assert len({plain, tuned, other}) == 3

    def test_equal_refs_hit_the_same_address(self):
        from repro.cache.keys import cache_key

        assert cache_key(
            self.spec_for(ScenarioRef("diurnal", {"peaks": (8, 18)}))
        ) == cache_key(
            self.spec_for(ScenarioRef("diurnal", {"peaks": [8, 18]}))
        )

    def test_warm_cache_reruns_compute_nothing(self, tmp_path):
        spec = small_spec(
            scenarios=("diurnal", "flash-crowd"),
            cache=str(tmp_path / "cc"),
        )
        cold = run_study(spec, executor=spec.build_transport())
        assert cold.cells_cached == 0
        assert cold.cells_computed == spec.total_runs
        warm = run_study(spec, executor=spec.build_transport())
        assert warm.cells_computed == 0
        assert warm.cells_cached == spec.total_runs
        assert warm.to_json() == cold.to_json()


class TestCli:
    def spec_path(self, tmp_path) -> str:
        path = tmp_path / "study.json"
        small_spec().save(str(path))
        return str(path)

    def test_scenario_flag_with_warm_cache_computes_nothing(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        argv = [
            "run", "--spec", self.spec_path(tmp_path),
            "--scenario", "diurnal", "--scenario-option", "ratio=12",
            "--cache", str(tmp_path / "cc"), "--no-progress",
        ]
        assert main(argv) == 0
        assert "cache: 0 hit(s), 3 computed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache: 3 hit(s), 0 computed" in capsys.readouterr().out

    def test_scenario_option_without_scenario_is_an_input_error(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        code = main([
            "run", "--spec", self.spec_path(tmp_path),
            "--scenario-option", "ratio=12",
        ])
        assert code == 2
        assert "requires --scenario" in capsys.readouterr().err

    def test_multi_scenario_run_prints_per_scenario_tables(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        path = tmp_path / "multi.json"
        small_spec(scenarios=("diurnal", "flash-crowd")).save(str(path))
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: diurnal" in out
        assert "scenario: flash-crowd" in out
        # Progress lines carry the per-shard scenario name.
        assert "[1/6] diurnal" in out

    def test_grid_scenario_flag_emits_the_axis(self, tmp_path, capsys):
        from repro.experiments.cli import main

        emitted = tmp_path / "spec.json"
        assert main([
            "run", "--scenario", "flash-crowd",
            "--emit-spec", str(emitted),
        ]) == 0
        capsys.readouterr()
        spec = StudySpec.load(str(emitted))
        assert spec.scenario_labels() == ("flash-crowd",)


class TestTraceDrivenScenario:
    def write_trace(self, tmp_path, lines):
        path = tmp_path / "contacts.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_replay_is_deterministic_and_seed_independent(self, tmp_path):
        path = self.write_trace(
            tmp_path, ["start,end", "10,12", "50,53", "200,204"]
        )
        ref = ScenarioRef("trace-driven", {"path": path})
        seeded_3 = generate_trace(materialize_scenario(ref, epochs=1, seed=3))
        seeded_8 = generate_trace(materialize_scenario(ref, epochs=1, seed=8))
        assert [c.start for c in seeded_3] == [10.0, 50.0, 200.0]
        assert [c.start for c in seeded_3] == [c.start for c in seeded_8]

    def test_vector_and_fast_see_the_identical_replay(self, tmp_path):
        path = self.write_trace(
            tmp_path, ["start,end", "600,700", "4000,4090", "30000,30070"]
        )
        study = run_study(
            small_spec(
                scenarios=(
                    {"name": "trace-driven", "options": {"path": path}},
                ),
                engines=("fast", "vector"),
                replicates=2,
                with_predictions=False,
            )
        )
        assert study.agreements["vector"].max_abs_delta("mean_zeta") == (
            pytest.approx(0.0, abs=1e-9)
        )

    @pytest.mark.parametrize("option", ["time_scale", "repeat_every"])
    def test_non_finite_replay_options_fail_loudly(self, tmp_path, option):
        # A NaN time_scale used to die in the vector engine with an
        # IndexError, and a NaN repeat_every replayed forever.
        path = self.write_trace(tmp_path, ["start,end", "10,12"])
        ref = ScenarioRef("trace-driven", {"path": path, option: float("nan")})
        with pytest.raises(ConfigurationError, match=option):
            materialize_scenario(ref, epochs=1, seed=3)

    def test_streams_argument_is_ignored(self, tmp_path):
        path = self.write_trace(tmp_path, ["start,end", "10,12"])
        scenario = materialize_scenario(
            ScenarioRef("trace-driven", {"path": path}), epochs=1, seed=3
        )
        a = generate_trace(scenario, streams=RandomStreams(1))
        b = generate_trace(scenario, streams=RandomStreams(2))
        assert [c.start for c in a] == [c.start for c in b]
