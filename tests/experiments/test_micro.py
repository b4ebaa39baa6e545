"""Unit tests for the cycle-accurate micro simulator."""

import pytest

from repro.core.schedulers.at import SnipAtScheduler
from repro.core.schedulers.rh import SnipRhScheduler
from repro.core.snip_model import upsilon
from repro.experiments.micro import MicroEngine, measure_upsilon
from repro.experiments.scenario import paper_roadside_scenario
from repro.radio.duty_cycle import DutyCycleConfig


def short_scenario(**kwargs):
    kwargs.setdefault("phi_max_divisor", 100)
    kwargs.setdefault("zeta_target", 24.0)
    kwargs.setdefault("epochs", 1)
    kwargs.setdefault("seed", 4)
    return paper_roadside_scenario(**kwargs)


class TestMicroEngine:
    def test_produces_epoch_metrics(self):
        scenario = short_scenario()
        scheduler = SnipAtScheduler(
            scenario.profile, scenario.model,
            zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
        )
        result = MicroEngine().run(scenario, scheduler)
        assert result.metrics.epoch_count == 1
        assert result.mean_zeta > 0

    def test_budget_invariant_holds(self):
        scenario = short_scenario(phi_max_divisor=1000, zeta_target=56.0)
        scheduler = SnipRhScheduler(
            scenario.profile, scenario.model, initial_contact_length=2.0
        )
        result = MicroEngine().run(scenario, scheduler)
        for row in result.metrics.epochs:
            assert row.phi <= scenario.phi_max + scenario.model.t_on

    def test_phi_matches_wake_accounting(self):
        scenario = short_scenario()
        scheduler = SnipAtScheduler(
            scenario.profile, scenario.model,
            zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
        )
        result = MicroEngine().run(scenario, scheduler)
        # AT runs all day at d; Phi over the epoch is d * Tepoch.
        expected = scheduler.duty_cycle * 86400.0
        assert result.mean_phi == pytest.approx(expected, rel=0.02)


class TestMeasureUpsilon:
    @pytest.mark.parametrize("duty", [0.005, 0.01, 0.02])
    def test_matches_equation_1(self, duty):
        config = DutyCycleConfig(t_on=0.02, duty_cycle=duty)
        measurement = measure_upsilon(config, 2.0, contact_count=250, seed=5)
        model_value = upsilon(duty, 2.0, 0.02)
        assert measurement.measured_upsilon == pytest.approx(
            model_value, abs=0.05
        )

    def test_all_contacts_probed_above_knee(self):
        config = DutyCycleConfig(t_on=0.02, duty_cycle=0.02)  # Tcycle = 1
        measurement = measure_upsilon(config, 2.0, contact_count=100, seed=5)
        assert measurement.probed_contacts == measurement.total_contacts

    def test_hit_rate_in_linear_regime(self):
        # Tcycle = 4, contact 2 -> about half the contacts are probed.
        config = DutyCycleConfig(t_on=0.02, duty_cycle=0.005)
        measurement = measure_upsilon(config, 2.0, contact_count=400, seed=5)
        hit_rate = measurement.probed_contacts / measurement.total_contacts
        assert hit_rate == pytest.approx(0.5, abs=0.08)
