"""Unit tests for replication statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.stats import (
    IntervalEstimate,
    estimates_from_runs,
    interval_from_samples,
)
from repro.units import DAY


class TestIntervalFromSamples:
    def test_mean_and_symmetry(self):
        estimate = interval_from_samples([1.0, 2.0, 3.0])
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.low == pytest.approx(2.0 - estimate.half_width)
        assert estimate.high == pytest.approx(2.0 + estimate.half_width)

    def test_known_t_value(self):
        # n=4, s=1: half-width = t_{0.975, 3} * 1/2 = 3.1824 / 2.
        samples = [0.0, 1.0, 1.0, 2.0]
        estimate = interval_from_samples(samples, confidence=0.95)
        expected = 3.182446 * (0.8164966 / 2.0)
        assert estimate.half_width == pytest.approx(expected, rel=1e-4)

    def test_single_sample_has_infinite_width(self):
        estimate = interval_from_samples([5.0])
        assert estimate.mean == 5.0
        assert estimate.half_width == float("inf")

    def test_identical_samples_have_zero_width(self):
        estimate = interval_from_samples([4.0, 4.0, 4.0])
        assert estimate.half_width == 0.0
        assert estimate.contains(4.0)

    def test_higher_confidence_widens(self):
        samples = [1.0, 2.0, 4.0, 5.0]
        narrow = interval_from_samples(samples, confidence=0.8)
        wide = interval_from_samples(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_contains(self):
        estimate = IntervalEstimate(10.0, 1.0, 0.95, 5)
        assert estimate.contains(10.9)
        assert not estimate.contains(11.1)

    def test_str_rendering(self):
        assert "±" in str(IntervalEstimate(1.0, 0.5, 0.95, 3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            interval_from_samples([])
        with pytest.raises(ConfigurationError):
            interval_from_samples([1.0], confidence=1.0)


def replicated_runs(epochs, seeds):
    """The runs behind one SNIP-RH study cell (ζtarget 24 s, Φmax
    Tepoch/100), one replicate per seed."""
    study = run_study(
        StudySpec(
            zeta_targets=(24.0,),
            phi_maxes=(DAY / 100,),
            epochs=epochs,
            mechanisms=("SNIP-RH",),
            replicate_seeds=seeds,
            with_predictions=False,
        )
    )
    (point,) = study.grid().budget(DAY / 100).points["SNIP-RH"]
    return point.replicates


class TestReplicate:
    @pytest.fixture(scope="class")
    def runs(self):
        return replicated_runs(epochs=2, seeds=(1, 2, 3, 4))

    def test_runs_one_per_seed(self, runs):
        assert [run.scenario.seed for run in runs] == [1, 2, 3, 4]

    def test_estimates_cover_default_metrics(self, runs):
        assert set(estimates_from_runs(runs)) == {"mean_zeta", "mean_phi", "mean_rho"}

    def test_zeta_interval_near_target(self, runs):
        estimate = estimates_from_runs(runs)["mean_zeta"]
        assert estimate.mean == pytest.approx(24.0, rel=0.2)
        assert estimate.replications == 4

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="replicate_seeds"):
            StudySpec(replicate_seeds=())
        with pytest.raises(ConfigurationError, match="at least one run"):
            estimates_from_runs([])

    def test_metrics_fall_back_to_run_metrics_attributes(self):
        runs = replicated_runs(epochs=1, seeds=(1, 2))
        estimates = estimates_from_runs(runs, metrics=("mean_delivery_delay",))
        assert estimates["mean_delivery_delay"].mean > 0
