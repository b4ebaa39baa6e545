"""Unit tests for the declarative StudySpec API.

The contract under test: a study is pure serializable data —
``from_dict(to_dict(s)) == s``, JSON files are byte-stable, bad keys
and bad registry names fail loudly at load time — and ``run_study`` is
the single orchestration path: byte-identical across jobs=1/4/shuffled,
and every cell equal to its directly executed shard — one engine listed
or two (paired on shared replicate seeds).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.engine import resolve_engine
from repro.experiments.parallel import (
    ParallelExecutor,
    ParallelFallbackWarning,
    SerialExecutor,
    Transport,
)
from repro.experiments.registry import PAPER_MECHANISMS, mechanism_factories
from repro.experiments.runner import RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import (
    NetworkSection,
    StudyDocument,
    StudySpec,
    run_study,
)
from repro.units import DAY

METRICS = ("zeta", "phi", "rho")


class ShuffledExecutor(Transport):
    """Runs shards in a scrambled order; results still index-aligned."""

    def __init__(self, shuffle_seed: int = 99) -> None:
        self.shuffle_seed = shuffle_seed

    def imap(self, fn, items):
        """Yield (index, result) pairs in the scrambled order."""
        items = list(items)
        order = list(range(len(items)))
        random.Random(self.shuffle_seed).shuffle(order)
        for index in order:
            yield index, fn(items[index])


def small_spec(**overrides) -> StudySpec:
    """A 2 targets x 2 budgets x 2 replicates study, short horizon."""
    kwargs = dict(
        name="small",
        zeta_targets=(16.0, 48.0),
        phi_maxes=(DAY / 1000.0, DAY / 100.0),
        epochs=2,
        seed=9,
        mechanisms=PAPER_MECHANISMS,
        engines=("fast",),
        replicates=2,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


class TestRoundTrip:
    def test_from_dict_of_to_dict_is_identity(self):
        spec = small_spec(
            replicate_seeds=(9, 21),
            replicates=2,
            jobs=3,
            batch_size=4,
            out="grid.json",
        )
        assert StudySpec.from_dict(spec.to_dict()) == spec
        fleet = small_spec(
            replicates=1,
            jobs=3,
            out="fleet.json",
            network=NetworkSection(nodes=2, commuters=8, node_factory="SNIP-AT"),
        )
        assert StudySpec.from_dict(fleet.to_dict()) == fleet

    def test_defaults_round_trip(self):
        spec = StudySpec()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_json_text_round_trip(self):
        spec = small_spec()
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_json_file_save_load_byte_stable(self, tmp_path):
        first = tmp_path / "study.json"
        second = tmp_path / "again.json"
        spec = small_spec(replicate_seeds=(9, 21))
        spec.save(str(first))
        StudySpec.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_minimal_document_takes_defaults(self):
        spec = StudySpec.from_dict({"name": "minimal"})
        assert spec == StudySpec(name="minimal")

    def test_to_dict_is_json_clean(self):
        document = small_spec().to_dict()
        # Must survive strict JSON without custom encoders.
        assert json.loads(json.dumps(document)) == document

    def test_spec_pickles(self):
        import pickle

        spec = small_spec(replicates=1, network=NetworkSection())
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestStrictValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="grid_size"):
            StudySpec.from_dict({"grid_size": 4})

    def test_unknown_section_key_names_dotted_path(self):
        with pytest.raises(ConfigurationError, match="scenario.epoch"):
            StudySpec.from_dict({"scenario": {"epoch": 3}})

    def test_unknown_network_key(self):
        with pytest.raises(ConfigurationError, match="network.node_count"):
            StudySpec.from_dict({"network": {"node_count": 2}})

    def test_bad_mechanism_registry_name(self):
        with pytest.raises(ConfigurationError, match="SNIP-XX"):
            StudySpec.from_dict({"axes": {"mechanisms": ["SNIP-XX"]}})

    def test_bad_engine_registry_name(self):
        with pytest.raises(ConfigurationError, match="warp"):
            StudySpec.from_dict({"axes": {"engines": ["warp"]}})

    def test_bad_node_factory_registry_name(self):
        with pytest.raises(ConfigurationError, match="NOPE"):
            StudySpec.from_dict({"network": {"node_factory": "NOPE"}})

    def test_non_mapping_document(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            StudySpec.from_dict([1, 2, 3])

    def test_non_mapping_section(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            StudySpec.from_dict({"scenario": [16.0]})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            StudySpec.from_json("{not json")

    def test_duplicate_phi_maxes(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            small_spec(phi_maxes=(864.0, 864.0))

    def test_duplicate_engines(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            small_spec(engines=("fast", "fast"))

    def test_duplicate_mechanisms(self):
        # A repeated mechanism would file both copies' cells under one
        # name and mislabel every ζtarget after the first.
        with pytest.raises(ConfigurationError, match="mechanisms must be distinct"):
            small_spec(mechanisms=("SNIP-AT", "SNIP-AT"))
        with pytest.raises(ConfigurationError, match="distinct"):
            StudySpec.from_dict({"axes": {"mechanisms": ["SNIP-RH", "SNIP-AT", "SNIP-RH"]}})

    def test_empty_targets(self):
        with pytest.raises(ConfigurationError, match="zeta_targets"):
            small_spec(zeta_targets=())

    def test_conflicting_replicates_and_seeds(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            small_spec(replicates=3, replicate_seeds=(1, 2))

    def test_duplicate_replicate_seeds(self):
        # A repeated seed re-runs one contact process: paired delta CIs
        # would collapse to ± 0 and fake the replication the gate needs.
        calls = []

        class CountingExecutor(Transport):
            def imap(self, fn, items):
                for index, item in enumerate(items):
                    calls.append(item)
                    yield index, fn(item)

        spec = small_spec(engines=("fast", "micro"), replicate_seeds=(5, 5))
        with pytest.raises(ConfigurationError, match=r"repeated: \[5\]"):
            run_study(spec, executor=CountingExecutor())
        assert calls == []
        with pytest.raises(ConfigurationError, match=r"repeated: \[3, 7\]"):
            StudySpec.from_dict(
                {"axes": {"replicate_seeds": [7, 3, 7, 1, 3]}}
            )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_targets_and_budgets(self, bad):
        value = float(bad)
        with pytest.raises(ConfigurationError, match="zeta_targets"):
            small_spec(zeta_targets=(16.0, value))
        with pytest.raises(ConfigurationError, match="phi_maxes"):
            small_spec(phi_maxes=(value,))
        # NaN never equals itself, so it must not slip past distinctness.
        with pytest.raises(ConfigurationError, match="phi_maxes"):
            StudySpec.from_dict({"scenario": {"phi_maxes": [value, value]}})

    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            small_spec(batch_size="huge")

    def test_network_validation(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            NetworkSection(nodes=0)

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"scenario": {"epochs": True}}, "epochs"),
            ({"scenario": {"seed": True}}, "seed"),
            ({"axes": {"replicates": True}}, "replicates"),
            ({"axes": {"replicate_seeds": [7.9, 3]}}, "replicate_seeds"),
            ({"axes": {"replicate_seeds": ["3"]}}, "replicate_seeds"),
            ({"axes": {"replicate_seeds": [True]}}, "replicate_seeds"),
            ({"execution": {"jobs": True}}, "jobs"),
            ({"execution": {"batch_size": True}}, "batch_size"),
            ({"network": {"nodes": True}}, "nodes"),
            ({"network": {"commuters": True}}, "commuters"),
        ],
    )
    def test_non_integers_rejected_not_coerced(self, document, field):
        # bool is an int subclass and int() truncates floats: neither
        # may slip into a spec (and so into its to_json) silently.
        with pytest.raises(ConfigurationError, match=field):
            StudySpec.from_dict(document)

    def test_network_section_rejects_bool_nodes(self):
        with pytest.raises(ConfigurationError, match="network.nodes"):
            NetworkSection(nodes=True)

    @pytest.mark.parametrize(
        "override, axis",
        [
            ({"axes.engines": ["fast", "vector"]}, "axes.engines"),
            ({"axes.replicates": 3}, "axes.replicates"),
            ({"axes.replicate_seeds": [5, 6]}, "axes.replicate_seeds"),
            ({"axes.replicate_seeds": [5]}, "axes.replicate_seeds"),
        ],
    )
    def test_network_rejects_grid_only_axes(self, override, axis):
        # A fleet runs each node once on one engine: an axis that would
        # multiply its cells must fail loudly, not be silently dropped.
        fleet = small_spec(
            replicates=1, network=NetworkSection(nodes=2, commuters=8)
        )
        with pytest.raises(ConfigurationError, match=f"{axis}.*grid studies"):
            fleet.with_overrides(override)


class TestOverrides:
    def test_dotted_path_override(self):
        spec = small_spec().with_overrides(
            {"scenario.epochs": 5, "execution.jobs": 4, "name": "patched"}
        )
        assert spec.epochs == 5
        assert spec.jobs == 4
        assert spec.name == "patched"

    def test_comma_separated_names_become_tuples(self):
        spec = small_spec().with_overrides({"axes.engines": "fast,micro"})
        assert spec.engines == ("fast", "micro")

    def test_list_override(self):
        spec = small_spec().with_overrides({"scenario.zeta_targets": [24, 32]})
        assert spec.zeta_targets == (24.0, 32.0)

    def test_network_section_materializes(self):
        spec = small_spec(replicates=1).with_overrides({"network.nodes": 5})
        assert spec.network is not None
        assert spec.network.nodes == 5
        assert spec.network.node_factory == "SNIP-RH"

    def test_unknown_override_path(self):
        with pytest.raises(ConfigurationError, match="scenario.epoch"):
            small_spec().with_overrides({"scenario.epoch": 5})

    def test_too_deep_override_path(self):
        with pytest.raises(ConfigurationError, match="segments"):
            small_spec().with_overrides({"a.b.c": 1})

    def test_overrides_do_not_mutate_original(self):
        spec = small_spec()
        spec.with_overrides({"scenario.epochs": 5})
        assert spec.epochs == 2


@pytest.fixture(scope="module")
def reference_study():
    """The serial run of the 2x2x2 study every variant must match."""
    return run_study(small_spec(), executor=SerialExecutor())


def grid_series(study):
    grid = study.grid()
    return {
        (phi_max, metric): grid.budget(phi_max).series(metric)
        for phi_max in grid.phi_maxes
        for metric in METRICS
    }


class TestRunStudyDeterminism:
    def test_four_workers_match_serial(self, reference_study):
        pool = ParallelExecutor(jobs=4)
        study = run_study(small_spec(), executor=pool)
        assert pool.last_map_parallel, "study silently fell back to serial"
        assert grid_series(study) == grid_series(reference_study)

    def test_spec_jobs_build_the_pool(self, reference_study):
        study = run_study(small_spec(jobs=4))
        assert grid_series(study) == grid_series(reference_study)

    def test_shuffled_matches_serial(self, reference_study):
        study = run_study(small_spec(), executor=ShuffledExecutor())
        assert grid_series(study) == grid_series(reference_study)

    def test_cell_rows_identical_too(self, reference_study):
        pooled = run_study(small_spec(), executor=ParallelExecutor(jobs=4))
        assert pooled.grid().cell_rows() == reference_study.grid().cell_rows()


def direct_run(spec, phi_max, target, mechanism, seed, engine="fast"):
    """One cell executed as a bare shard on the paper scenario."""
    base = paper_roadside_scenario(epochs=spec.epochs, seed=spec.seed)
    scenario = base.with_budget(phi_max).with_target(target).with_seed(seed)
    return execute_run_spec(
        RunSpec(scenario=scenario, mechanism=mechanism, engine=engine)
    )


class TestRunStudySubsumesLegacyApis:
    def test_single_engine_study_reproduces_sweep_grid(self, reference_study):
        # Every cell is its directly executed shard: the paper scenario
        # at the cell's Φmax/ζtarget, seeded per replicate.
        spec = small_spec()
        study_grid = reference_study.grid()
        for phi_max in spec.phi_maxes:
            for mechanism, column in study_grid.budget(phi_max).points.items():
                for point in column:
                    observed = [run.mean_zeta for run in point.replicates]
                    expected = [
                        direct_run(
                            spec, phi_max, point.zeta_target, mechanism, seed
                        ).mean_zeta
                        for seed in spec.resolved_seeds()
                    ]
                    assert observed == expected

    def test_two_engine_study_reproduces_agreement_grid(self):
        spec = StudySpec(
            name="agree-equiv",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=1,
            seed=11,
            mechanisms=("SNIP-AT", "SNIP-RH"),
            engines=("fast", "micro"),
            replicates=2,
            with_predictions=False,
        )
        study = run_study(spec)
        assert study.agreement is not None
        seeds = spec.resolved_seeds()
        for point in study.agreement:
            for side, engine in (("baseline", "fast"), ("candidate", "micro")):
                observed = [run.mean_zeta for run in getattr(point, side)]
                expected = [
                    direct_run(
                        spec, point.phi_max, point.zeta_target,
                        point.mechanism, seed, engine,
                    ).mean_zeta
                    for seed in seeds
                ]
                assert observed == expected, (point.mechanism, side)
        # And the same study also carries one grid per engine.
        assert set(study.grids) == {"fast", "micro"}

    def test_agreement_pairs_share_seeds(self):
        spec = StudySpec(
            name="pairing",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=1,
            seed=3,
            mechanisms=("SNIP-AT",),
            engines=("fast", "micro"),
            replicates=2,
            with_predictions=False,
        )
        agreement = run_study(spec).agreement
        for point in agreement:
            for base_run, cand_run in zip(point.baseline, point.candidate):
                assert base_run.scenario.seed == cand_run.scenario.seed

    def test_unknown_engine_fails_before_any_shard(self):
        calls = []

        class CountingExecutor(Transport):
            def imap(self, fn, items):
                for index, item in enumerate(items):
                    calls.append(item)
                    yield index, fn(item)

        spec = small_spec()
        object.__setattr__(spec, "engines", ("sloth",))
        with pytest.raises(ConfigurationError, match="sloth"):
            run_study(spec, executor=CountingExecutor())
        assert calls == []

    def test_unknown_mechanism_fails_before_any_shard(self):
        spec = small_spec()
        object.__setattr__(spec, "mechanisms", ("SNIP-??",))
        with pytest.raises(ConfigurationError, match="SNIP-"):
            run_study(spec)


class TestNetworkStudy:
    def test_network_study_matches_direct_runner(self):
        from repro.network.runner import commuter_fleet_traces

        spec = StudySpec(
            name="fleet",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=2,
            seed=4,
            engines=("fast",),
            network=NetworkSection(nodes=2, commuters=10),
        )
        study = run_study(spec)
        assert study.network is not None
        assert not study.grids and not study.agreements
        traces = commuter_fleet_traces(nodes=2, commuters=10, days=2, seed=4)
        scenario = spec.base_scenario()
        factory = mechanism_factories.resolve("SNIP-RH")
        assert sorted(study.network.outcomes) == sorted(traces)
        for node_id, trace in traces.items():
            direct = resolve_engine("fast").run(
                scenario, factory(scenario), trace=trace
            )
            outcome = study.network.outcomes[node_id]
            assert outcome.zeta == direct.mean_zeta
            assert outcome.phi == direct.mean_phi
            assert outcome.contacts == len(trace)

    def test_network_document_round_trips(self, tmp_path):
        spec = StudySpec(
            name="fleet-doc",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=1,
            seed=4,
            network=NetworkSection(nodes=2, commuters=8),
        )
        study = run_study(spec)
        path = tmp_path / "fleet.json"
        study.save(str(path))
        document = StudyDocument.load(str(path))
        assert document.spec == spec
        assert set(document.network["nodes"]) == {"sensor-0", "sensor-1"}


class TestStudyResultSerialization:
    def test_document_load_recovers_spec_and_cells(self, tmp_path, reference_study):
        path = tmp_path / "study.json"
        reference_study.save(str(path))
        document = StudyDocument.load(str(path))
        assert document.spec == reference_study.spec
        cells = document.cells()
        assert len(cells) == 2 * 2 * 3  # budgets x targets x mechanisms
        assert all("zeta" in cell for cell in cells)

    def test_csv_concatenates_engine_cells(self, reference_study):
        lines = reference_study.to_csv().strip().splitlines()
        assert lines[0].startswith("engine,phi_max,")
        assert len(lines) == 1 + 2 * 2 * 3

    def test_non_study_document_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"cells": []}')
        with pytest.raises(ConfigurationError, match="study"):
            StudyDocument.load(str(path))


class TestFallbackLabelling:
    def test_fallback_warning_names_the_study(self):
        # The study labels an unlabelled executor for the whole run...
        executor = ParallelExecutor(jobs=2)
        labels = []
        run_study(
            small_spec(name="my-labelled-study"),
            executor=executor,
            progress=lambda *_: labels.append(executor.label),
        )
        assert set(labels) == {"my-labelled-study"}

        # ...and a labelled executor names it in any fallback warning.
        bound = {"run": execute_run_spec}

        def unpicklable(spec):  # a closure: cannot cross the pool
            return bound["run"](spec)

        scenario = paper_roadside_scenario(epochs=1, seed=9)
        shards = [RunSpec(scenario=scenario, mechanism="SNIP-RH")] * 2
        executor.label = "my-labelled-study"
        with pytest.warns(ParallelFallbackWarning, match="my-labelled-study"):
            executor.map(unpicklable, shards)

    def test_explicit_label_wins(self):
        executor = ParallelExecutor(jobs=2, label="hand-named")
        spec = small_spec(name="spec-name")
        run_study(spec, executor=executor)
        assert executor.label == "hand-named"

    def test_caller_pool_label_restored_after_run(self):
        # A pool reused across studies must not keep the first study's
        # label (a later fallback would be misattributed).
        executor = ParallelExecutor(jobs=2)
        run_study(small_spec(name="first"), executor=executor)
        assert executor.label is None


class TestSpecDerivedViews:
    def test_total_runs(self):
        assert small_spec().total_runs == 2 * 2 * 3 * 2
        assert small_spec(engines=("fast", "micro")).total_runs == 2 * 2 * 3 * 2 * 2
        fleet = small_spec(replicates=1, network=NetworkSection(nodes=7))
        assert fleet.total_runs == 7

    def test_budget_divisors(self):
        assert small_spec().budget_divisors() == (1000.0, 100.0)

    def test_resolved_seeds_default_to_replicate_derivation(self):
        seeds = small_spec().resolved_seeds()
        assert seeds[0] == 9  # replicate 0 keeps the base seed
        assert len(seeds) == 2

    def test_base_scenario_applies_overrides(self):
        scenario = small_spec().base_scenario()
        assert scenario.epochs == 2
        assert scenario.seed == 9
        assert scenario.phi_max == DAY / 1000.0
