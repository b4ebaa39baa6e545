"""Unit tests for the closed-form SNIP model (equation 1)."""

import pytest

from repro.core.snip_model import (
    SnipModel,
    duty_cycle_for_upsilon,
    knee_duty_cycle,
    upsilon,
    upsilon_exponential_lengths,
)
from repro.errors import ConfigurationError

T_ON = 0.02


class TestUpsilon:
    def test_linear_branch_value(self):
        # Tc=2, d=0.005 -> Tcycle=4 >= Tc: upsilon = Tc d / (2 Ton) = 0.25
        assert upsilon(0.005, 2.0, T_ON) == pytest.approx(0.25)

    def test_saturating_branch_value(self):
        # d=0.02 -> Tcycle=1 < 2: upsilon = 1 - Ton/(2 d Tc) = 0.75
        assert upsilon(0.02, 2.0, T_ON) == pytest.approx(0.75)

    def test_value_at_knee_is_half(self):
        knee = knee_duty_cycle(2.0, T_ON)
        assert upsilon(knee, 2.0, T_ON) == pytest.approx(0.5)

    def test_continuity_at_knee(self):
        knee = knee_duty_cycle(2.0, T_ON)
        below = upsilon(knee * (1 - 1e-9), 2.0, T_ON)
        above = upsilon(knee * (1 + 1e-9), 2.0, T_ON)
        assert below == pytest.approx(above, abs=1e-6)

    def test_monotone_in_duty_cycle(self):
        duties = [0.001 * k for k in range(1, 500)]
        values = [upsilon(d, 2.0, T_ON) for d in duties]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded_between_zero_and_one(self):
        for duty in (1e-6, 0.01, 0.5, 1.0):
            for length in (0.05, 2.0, 100.0):
                assert 0.0 <= upsilon(duty, length, T_ON) <= 1.0

    def test_longer_contacts_probe_better(self):
        assert upsilon(0.005, 4.0, T_ON) > upsilon(0.005, 2.0, T_ON)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            upsilon(0.0, 2.0, T_ON)
        with pytest.raises(ConfigurationError):
            upsilon(1.5, 2.0, T_ON)
        with pytest.raises(ConfigurationError):
            upsilon(0.01, -2.0, T_ON)


class TestKnee:
    def test_paper_value(self):
        # Ton = 20 ms, Tc = 2 s -> knee at 1%.
        assert knee_duty_cycle(2.0, T_ON) == pytest.approx(0.01)

    def test_clamped_at_one_for_tiny_contacts(self):
        assert knee_duty_cycle(0.01, T_ON) == 1.0


class TestInverse:
    def test_round_trip_linear_branch(self):
        duty = duty_cycle_for_upsilon(0.3, 2.0, T_ON)
        assert upsilon(duty, 2.0, T_ON) == pytest.approx(0.3)

    def test_round_trip_saturating_branch(self):
        duty = duty_cycle_for_upsilon(0.8, 2.0, T_ON)
        assert upsilon(duty, 2.0, T_ON) == pytest.approx(0.8)

    def test_zero_target(self):
        assert duty_cycle_for_upsilon(0.0, 2.0, T_ON) == 0.0

    def test_unreachable_target_raises(self):
        # At d=1 upsilon caps at 1 - Ton/(2 Tc) = 0.995 for Tc=2.
        with pytest.raises(ConfigurationError):
            duty_cycle_for_upsilon(0.9999, 2.0, T_ON)

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            duty_cycle_for_upsilon(1.0, 2.0, T_ON)


class TestSnipModel:
    def test_expected_probed_seconds(self):
        model = SnipModel(t_on=T_ON)
        assert model.expected_probed_seconds(0.005, 2.0) == pytest.approx(0.5)
        # Tcycle = 2, contact 1: P(hit) = 1/2, E[probed|hit] = 1/2.
        assert model.expected_probed_seconds(0.01, 1.0) == pytest.approx(0.25)
        # Tcycle = 2, contact 4: probed = 4 - Tcycle/2 = 3.
        assert model.expected_probed_seconds(0.01, 4.0) == pytest.approx(3.0)
        # Continuous in the contact length at the knee (Tc = Tcycle).
        below = model.expected_probed_seconds(0.01, 2.0 - 1e-9)
        above = model.expected_probed_seconds(0.01, 2.0 + 1e-9)
        assert below == pytest.approx(above, abs=1e-6)

    def test_cost_per_probed_second_constant_in_linear_regime(self):
        """The property behind SNIP-RH's duty-cycle choice (§VI-C)."""
        model = SnipModel(t_on=T_ON)
        rate = 1 / 300.0
        costs = [
            model.cost_per_probed_second(duty, rate, 2.0)
            for duty in (0.002, 0.005, 0.01)
        ]
        assert costs[0] == pytest.approx(costs[1]) == pytest.approx(costs[2])
        assert costs[0] == pytest.approx(3.0)  # the paper scenario's rho

    def test_cost_rises_above_knee(self):
        model = SnipModel(t_on=T_ON)
        rate = 1 / 300.0
        at_knee = model.cost_per_probed_second(0.01, rate, 2.0)
        above = model.cost_per_probed_second(0.05, rate, 2.0)
        assert above > at_knee

    def test_cost_rises_slowly_just_above_knee(self):
        """Paper: rho 'does not increase abruptly' slightly past the knee."""
        model = SnipModel(t_on=T_ON)
        rate = 1 / 300.0
        at_knee = model.cost_per_probed_second(0.01, rate, 2.0)
        slightly_above = model.cost_per_probed_second(0.012, rate, 2.0)
        assert slightly_above / at_knee < 1.2


class TestExponentialLengths:
    def test_reduces_toward_upsilon_for_tiny_cycle(self):
        # With Tcycle far below the mean length nearly everything probes.
        value = upsilon_exponential_lengths(0.5, 2.0, T_ON)
        assert value > 0.95

    def test_bounded(self):
        for duty in (0.001, 0.01, 0.1):
            value = upsilon_exponential_lengths(duty, 2.0, T_ON)
            assert 0.0 <= value <= 1.0

    def test_monotone_in_duty_cycle(self):
        values = [
            upsilon_exponential_lengths(d, 2.0, T_ON)
            for d in (0.002, 0.005, 0.01, 0.02, 0.05)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_slope_changes_near_knee(self):
        """Footnote 1: a visible slope change remains at Tcycle = mean."""
        knee = knee_duty_cycle(2.0, T_ON)
        h = 0.3
        below = (
            upsilon_exponential_lengths(knee, 2.0, T_ON)
            - upsilon_exponential_lengths(knee * (1 - h), 2.0, T_ON)
        ) / (knee * h)
        above = (
            upsilon_exponential_lengths(knee * (1 + h), 2.0, T_ON)
            - upsilon_exponential_lengths(knee, 2.0, T_ON)
        ) / (knee * h)
        assert above < 0.8 * below

    def test_monte_carlo_agreement(self):
        """The closed form matches direct sampling of Exp lengths."""
        import numpy as np

        rng = np.random.default_rng(4)
        duty, mean = 0.01, 2.0
        t_cycle = T_ON / duty
        lengths = rng.exponential(mean, size=200_000)
        short = lengths[lengths <= t_cycle]
        long = lengths[lengths > t_cycle]
        probed = (short**2 / (2 * t_cycle)).sum() + (long - t_cycle / 2).sum()
        empirical = probed / lengths.sum()
        assert upsilon_exponential_lengths(duty, mean, T_ON) == pytest.approx(
            empirical, rel=0.01
        )
