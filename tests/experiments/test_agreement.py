"""Unit tests for the replicated two-engine agreement grid.

The contract under test: a two-engine `run_study` flattens mechanism ×
ζtarget × Φmax × replicate × engine into pure RunSpec shards on the standard
sharding/seeding contract — paired engines share each replicate's seed,
reassembly is by shard index, and the assembled result is byte-identical
for any worker count or execution order.
"""

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.agreement import (
    AGREEMENT_EXPORT_COLUMNS,
    AGREEMENT_METRICS,
)
from repro.experiments.parallel import ParallelExecutor, SerialExecutor, Transport
from repro.experiments.spec import StudySpec, run_study
from repro.units import DAY

TARGETS = (16.0,)
PHI_MAXES = (DAY / 100.0,)
MECHANISMS = ("SNIP-AT", "SNIP-RH")


class ShuffledExecutor(Transport):
    """Runs shards in a scrambled order; results still index-aligned."""

    def __init__(self, shuffle_seed: int = 77) -> None:
        self.shuffle_seed = shuffle_seed

    def imap(self, fn, items):
        """Yield (index, result) pairs in the scrambled order."""
        items = list(items)
        order = list(range(len(items)))
        random.Random(self.shuffle_seed).shuffle(order)
        for index in order:
            yield index, fn(items[index])


def agreement_spec(**overrides) -> StudySpec:
    """A paired fast-vs-micro study (1 epoch, seed 11, no predictions)."""
    kwargs = dict(
        zeta_targets=TARGETS,
        phi_maxes=PHI_MAXES,
        epochs=1,
        seed=11,
        mechanisms=MECHANISMS,
        engines=("fast", "micro"),
        replicates=2,
        with_predictions=False,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def run_agreement(executor=None, progress=None, **overrides):
    """Run :func:`agreement_spec` and return its micro-vs-fast result."""
    study = run_study(
        agreement_spec(**overrides), executor=executor, progress=progress
    )
    return study.agreement


@pytest.fixture(scope="module")
def reference():
    """The serial agreement grid every execution variant must match."""
    return run_agreement(SerialExecutor())


def delta_series(result):
    return [
        (p.mechanism, p.zeta_target, p.phi_max)
        + tuple(p.delta(metric).mean for metric in AGREEMENT_METRICS)
        for p in result
    ]


class TestDeterminism:
    def test_pool_matches_serial(self, reference):
        pool = ParallelExecutor(jobs=2)
        via_pool = run_agreement(pool)
        assert pool.last_map_parallel, "agreement grid fell back to serial"
        assert delta_series(via_pool) == delta_series(reference)

    def test_shuffled_matches_serial(self, reference):
        shuffled = run_agreement(ShuffledExecutor())
        assert delta_series(shuffled) == delta_series(reference)


class TestPairing:
    def test_paired_replicates_share_seeds(self, reference):
        for point in reference:
            for base_run, cand_run in zip(point.baseline, point.candidate):
                assert base_run.scenario.seed == cand_run.scenario.seed
                assert base_run.scenario.phi_max == point.phi_max
                assert base_run.scenario.zeta_target == point.zeta_target

    def test_replicates_use_distinct_seeds(self, reference):
        for point in reference:
            seeds = [run.scenario.seed for run in point.baseline]
            assert len(set(seeds)) == len(seeds)

    def test_engines_labelled(self, reference):
        assert reference.baseline_engine == "fast"
        assert reference.candidate_engine == "micro"
        assert reference.n_replicates == 2
        assert len(reference) == len(TARGETS) * len(PHI_MAXES) * len(MECHANISMS)


class TestEstimates:
    def test_deltas_cover_all_metrics(self, reference):
        for point in reference:
            for metric in AGREEMENT_METRICS:
                interval = point.delta(metric)
                assert interval.replications == 2
                assert interval.low <= interval.mean <= interval.high

    def test_engine_means_bracket_deltas(self, reference):
        for point in reference:
            for metric in AGREEMENT_METRICS:
                expected = point.engine_mean(
                    "candidate", metric
                ) - point.engine_mean("baseline", metric)
                assert point.delta(metric).mean == pytest.approx(expected)

    def test_per_engine_estimates_back_engine_means(self, reference):
        """engine_mean serves ζ/Φ from the estimates_from_runs intervals."""
        for point in reference:
            for metric in ("mean_zeta", "mean_phi"):
                assert (
                    point.engine_mean("baseline", metric)
                    == point.baseline_estimates[metric].mean
                )
                assert (
                    point.engine_mean("candidate", metric)
                    == point.candidate_estimates[metric].mean
                )

    def test_unknown_metric_rejected(self, reference):
        with pytest.raises(ConfigurationError):
            reference.points[0].delta("mean_banana")

    def test_unknown_budget_rejected(self, reference):
        with pytest.raises(ConfigurationError):
            reference.budget(123.0)


class TestStreaming:
    def test_progress_sees_both_engines_every_cell(self):
        seen = []

        def observe(spec, result, completed, total):
            seen.append((spec.engine, spec.mechanism, spec.replicate))

        run_agreement(progress=observe, mechanisms=("SNIP-AT",))
        assert len(seen) == 4  # 1 cell x 2 replicates x 2 engines
        assert {engine for engine, _m, _r in seen} == {"fast", "micro"}


class TestValidation:
    def test_identical_engines_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            agreement_spec(engines=("fast", "fast"))

    def test_unknown_engine_rejected_before_any_run(self):
        calls = []

        class CountingExecutor(Transport):
            """Records every dispatched shard (none must arrive)."""

            def imap(self, fn, items):
                for index, item in enumerate(items):
                    calls.append(item)
                    yield index, fn(item)

        with pytest.raises(ConfigurationError, match="warp"):
            run_agreement(CountingExecutor(), engines=("fast", "warp"))
        assert calls == []

    def test_empty_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            agreement_spec(phi_maxes=())

    def test_empty_targets_rejected(self):
        with pytest.raises(ConfigurationError, match="zeta_targets"):
            agreement_spec(zeta_targets=())

    def test_bad_side_rejected(self, reference):
        with pytest.raises(ConfigurationError, match="side"):
            reference.points[0].engine_mean("sideways", "mean_zeta")

    def test_empty_mechanisms_rejected(self):
        with pytest.raises(ConfigurationError):
            agreement_spec(mechanisms=())


class TestSerialization:
    def test_to_json_is_strict_and_complete(self, reference):
        document = json.loads(reference.to_json())
        assert document["baseline_engine"] == "fast"
        assert document["candidate_engine"] == "micro"
        assert len(document["cells"]) == len(reference)
        for cell in document["cells"]:
            for column in AGREEMENT_EXPORT_COLUMNS:
                assert column in cell

    def test_to_csv_has_one_row_per_cell(self, reference):
        lines = reference.to_csv().strip().splitlines()
        assert lines[0] == ",".join(AGREEMENT_EXPORT_COLUMNS)
        assert len(lines) == 1 + len(reference)
