"""Unit and invariant tests for the fast contact-driven simulator."""

import math

import pytest

from repro.core.schedulers.at import SnipAtScheduler
from repro.core.schedulers.rh import SnipRhScheduler
from repro.experiments.runner import FastRunner, generate_trace
from repro.experiments.scenario import paper_roadside_scenario
from repro.mobility.contact import Contact, ContactTrace


def at_scheduler(scenario):
    return SnipAtScheduler(
        scenario.profile, scenario.model,
        zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
    )


def rh_scheduler(scenario):
    return SnipRhScheduler(
        scenario.profile, scenario.model, initial_contact_length=2.0
    )


class TestBasicRun:
    def test_produces_one_metrics_row_per_epoch(self, tight_scenario):
        result = FastRunner(tight_scenario, at_scheduler(tight_scenario)).run()
        assert result.metrics.epoch_count == tight_scenario.epochs

    def test_every_contact_is_probed_or_missed(self, tight_scenario):
        result = FastRunner(tight_scenario, at_scheduler(tight_scenario)).run()
        resolved = result.metrics.total_probed + result.metrics.total_missed
        # The final contact can stay pending if it crosses the horizon.
        assert resolved >= len(generate_trace(tight_scenario)) - 1

    def test_deterministic_given_seed(self, tight_scenario):
        a = FastRunner(tight_scenario, at_scheduler(tight_scenario)).run()
        b = FastRunner(tight_scenario, at_scheduler(tight_scenario)).run()
        assert a.mean_zeta == b.mean_zeta
        assert a.mean_phi == b.mean_phi

    def test_different_seeds_differ(self, tight_scenario):
        other = tight_scenario.with_seed(99)
        a = FastRunner(tight_scenario, at_scheduler(tight_scenario)).run()
        b = FastRunner(other, at_scheduler(other)).run()
        assert a.mean_zeta != b.mean_zeta


class TestBudgetInvariant:
    @pytest.mark.parametrize("divisor", [1000, 100])
    @pytest.mark.parametrize("factory", [at_scheduler, rh_scheduler])
    def test_epoch_phi_never_exceeds_budget(self, divisor, factory):
        scenario = paper_roadside_scenario(
            phi_max_divisor=divisor, zeta_target=56.0, epochs=4, seed=3
        )
        result = FastRunner(scenario, factory(scenario)).run()
        for row in result.metrics.epochs:
            assert row.phi <= scenario.phi_max + 1e-6


class TestRushInvariant:
    def test_rh_probes_only_inside_rush_hours(self):
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=32.0, epochs=3, seed=7
        )
        runner = FastRunner(scenario, rh_scheduler(scenario), record_timeline=True)
        runner.run()
        profile = scenario.profile
        probes = runner.timeline.intervals("probe")
        assert probes, "expected at least one probed contact"
        for record in probes:
            assert profile.is_rush_at(record.start)

    def test_rh_probing_energy_spent_only_in_rush(self):
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=32.0, epochs=3, seed=7
        )
        runner = FastRunner(scenario, rh_scheduler(scenario), record_timeline=True)
        runner.run()
        for record in runner.timeline.intervals("probing_active"):
            assert scenario.profile.is_rush_at(record.start)


class TestOracleAgreement:
    def test_at_matches_closed_form_beacon_grid(self):
        """With a fixed trace and AT, the runner equals direct arithmetic."""
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=16.0, epochs=1, seed=2
        )
        scheduler = at_scheduler(scenario)
        trace = ContactTrace(
            [Contact(997.3 + 400.0 * k, 2.0) for k in range(100)]
        )
        result = FastRunner(scenario, scheduler, trace=trace).run()
        t_cycle = scheduler._config.t_cycle
        expected = 0.0
        for contact in trace:
            beacon = math.ceil(contact.start / t_cycle) * t_cycle
            if beacon < contact.end:
                expected += contact.end - beacon
        assert result.metrics.epochs[0].zeta == pytest.approx(expected)

    def test_boundary_straddling_contact_probed_across_intervals(self):
        """A beacon landing exactly on a decision boundary still probes.

        With Φmax = Tepoch/1000 the AT duty-cycle is budget-capped at
        exactly 0.001, so Tcycle is exactly 20 s and every third beacon
        coincides with a 60 s decision boundary.  A contact straddling
        that boundary must be probed by the boundary beacon (this was a
        real bug: the straddler was declared missed one interval early).
        """
        scenario = paper_roadside_scenario(
            phi_max_divisor=1000, zeta_target=16.0, epochs=1, seed=2
        )
        scheduler = at_scheduler(scenario)
        assert scheduler._config.t_cycle == pytest.approx(20.0)
        trace = ContactTrace([Contact(59.5, 2.0)])  # beacon at 60.0
        result = FastRunner(scenario, scheduler, trace=trace).run()
        assert result.metrics.total_probed == 1
        assert result.metrics.epochs[0].zeta == pytest.approx(1.5)


class TestDataPlane:
    def test_uploads_never_exceed_generated_data(self, loose_scenario):
        result = FastRunner(loose_scenario, rh_scheduler(loose_scenario)).run()
        total_uploaded = sum(e.uploaded for e in result.metrics.epochs)
        generated = loose_scenario.data_rate * loose_scenario.epochs * 86400.0
        assert total_uploaded <= generated + 1e-6

    def test_buffer_conservation(self, loose_scenario):
        runner = FastRunner(loose_scenario, rh_scheduler(loose_scenario))
        runner.run()
        assert runner.node.buffer.conservation_error() < 1e-9

    def test_zeta_counts_probed_time_not_uploads(self, loose_scenario):
        result = FastRunner(loose_scenario, rh_scheduler(loose_scenario)).run()
        assert result.mean_zeta >= result.metrics.mean_uploaded - 1e-9
