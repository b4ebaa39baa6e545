"""Unit tests for the EWMA estimator."""

import pytest

from repro.core.ewma import Ewma
from repro.errors import ConfigurationError


class TestSeeding:
    def test_unseeded_value_is_none(self):
        ewma = Ewma()
        assert ewma.value is None
        assert not ewma.is_seeded

    def test_first_sample_seeds_directly(self):
        ewma = Ewma(weight=0.1)
        ewma.observe(7.0)
        assert ewma.value == pytest.approx(7.0)

    def test_initial_prior_seeds(self):
        ewma = Ewma(weight=0.5, initial=2.0)
        assert ewma.is_seeded
        ewma.observe(4.0)
        assert ewma.value == pytest.approx(3.0)

    def test_value_or_default(self):
        assert Ewma().value_or(9.0) == 9.0
        ewma = Ewma(initial=1.0)
        assert ewma.value_or(9.0) == 1.0


class TestUpdates:
    def test_standard_update_formula(self):
        ewma = Ewma(weight=0.25, initial=0.0)
        ewma.observe(8.0)
        assert ewma.value == pytest.approx(2.0)

    def test_converges_to_constant_signal(self):
        ewma = Ewma(weight=0.125, initial=0.0)
        for _ in range(200):
            ewma.observe(5.0)
        assert ewma.value == pytest.approx(5.0, abs=1e-6)

    def test_small_weight_filters_outliers(self):
        """The paper assigns 'a small weight to the new sample'."""
        ewma = Ewma(weight=0.1, initial=2.0)
        ewma.observe(100.0)  # one spike
        assert ewma.value < 15.0

    def test_sample_count(self):
        ewma = Ewma()
        for value in (1.0, 2.0, 3.0):
            ewma.observe(value)
        assert ewma.sample_count == 3

    def test_reset_forgets(self):
        ewma = Ewma(initial=5.0)
        ewma.observe(1.0)
        ewma.reset()
        assert ewma.value is None
        assert ewma.sample_count == 0


class TestValidation:
    def test_weight_bounds(self):
        with pytest.raises(ConfigurationError):
            Ewma(weight=0.0)
        with pytest.raises(ConfigurationError):
            Ewma(weight=1.5)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Ewma().observe(float("nan"))

    @pytest.mark.parametrize("bad", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_sample_rejected(self, bad):
        ewma = Ewma(0.125, initial=2.0)
        with pytest.raises(ConfigurationError, match="non-finite sample"):
            ewma.observe(bad)
        # The rejected sample leaves no trace: later samples fold in.
        assert ewma.value == 2.0
        assert ewma.sample_count == 0
        ewma.observe(1.0)
        assert ewma.value == 2.0 + 0.125 * (1.0 - 2.0)

    @pytest.mark.parametrize("bad", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="initial estimate must be finite"):
            Ewma(0.125, initial=bad)

    @pytest.mark.parametrize("bad", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_reset_rejected(self, bad):
        ewma = Ewma(0.125, initial=2.0)
        with pytest.raises(ConfigurationError, match="initial estimate must be finite"):
            ewma.reset(bad)
        assert ewma.value == 2.0

    def test_finite_priors_still_accepted(self):
        ewma = Ewma(0.5, initial=4)
        assert ewma.value == 4
        ewma.reset(None)
        assert ewma.value is None
        ewma.reset(-3.0)
        assert ewma.value == -3.0

    def test_weight_one_tracks_last_sample(self):
        ewma = Ewma(weight=1.0, initial=0.0)
        ewma.observe(3.0)
        assert ewma.value == 3.0
