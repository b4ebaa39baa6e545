"""Integration tests: the paper's headline results hold end-to-end.

These assertions encode the *shape* of the paper's evaluation — who
wins, by roughly what factor, and where the crossovers fall — on the
full analysis engine and on short simulated runs.
"""

import pytest

from repro.core.analysis import evaluate_schedulers, rush_hour_gain
from repro.experiments.scenario import (
    PAPER_ZETA_TARGETS,
    paper_roadside_scenario,
)
from repro.experiments.spec import StudySpec, run_study
from repro.units import DAY


@pytest.fixture(scope="module")
def tight_analysis():
    scenario = paper_roadside_scenario(phi_max_divisor=1000)
    return evaluate_schedulers(
        scenario.profile, scenario.model,
        zeta_targets=PAPER_ZETA_TARGETS, phi_max=scenario.phi_max,
    )


@pytest.fixture(scope="module")
def loose_analysis():
    scenario = paper_roadside_scenario(phi_max_divisor=100)
    return evaluate_schedulers(
        scenario.profile, scenario.model,
        zeta_targets=PAPER_ZETA_TARGETS, phi_max=scenario.phi_max,
    )


class TestFig4Motivation:
    def test_paper_scenario_gain_factor(self):
        """The paper's own scenario: 4/24 rush fraction, rate ratio 6."""
        gain = rush_hour_gain(4 / 24, 1800.0 / 300.0)
        assert gain == pytest.approx(9.818 / 3.0, rel=1e-3)

    def test_gain_surface_spans_paper_range(self):
        assert rush_hour_gain(0.05, 20.0) > 10.0
        assert rush_hour_gain(0.5, 2.0) < 1.5


class TestFig5TightBudget:
    def test_at_infeasible_everywhere(self, tight_analysis):
        for point in tight_analysis["SNIP-AT"]:
            assert not point.meets_target
            assert point.zeta == pytest.approx(8.8, rel=1e-3)

    def test_rh_feasible_for_small_targets(self, tight_analysis):
        rh = {p.zeta_target: p for p in tight_analysis["SNIP-RH"]}
        assert rh[16.0].meets_target
        assert rh[24.0].meets_target
        assert not rh[32.0].meets_target

    def test_rh_matches_opt(self, tight_analysis):
        """Fig. 5: 'its performance is same with SNIP-OPT'."""
        for rh, opt in zip(
            tight_analysis["SNIP-RH"], tight_analysis["SNIP-OPT"]
        ):
            assert rh.zeta == pytest.approx(opt.zeta, rel=1e-3)
            assert rh.phi == pytest.approx(opt.phi, rel=1e-3)

    def test_rh_cost_factor_over_at(self, tight_analysis):
        """RH probes at about 1/3.3 the per-unit cost of AT."""
        rho_at = tight_analysis["SNIP-AT"][0].rho
        rho_rh = tight_analysis["SNIP-RH"][0].rho
        assert rho_at / rho_rh == pytest.approx(9.818 / 3.0, rel=1e-2)


class TestFig6LooseBudget:
    def test_at_feasible_everywhere_but_expensive(self, loose_analysis):
        for point in loose_analysis["SNIP-AT"]:
            assert point.meets_target
            assert point.rho == pytest.approx(9.818, rel=1e-3)

    def test_rh_fails_only_at_56(self, loose_analysis):
        rh = {p.zeta_target: p for p in loose_analysis["SNIP-RH"]}
        for target in (16.0, 24.0, 32.0, 40.0, 48.0):
            assert rh[target].meets_target
        assert not rh[56.0].meets_target
        assert rh[56.0].zeta == pytest.approx(48.0, rel=1e-3)

    def test_rh_much_cheaper_than_at(self, loose_analysis):
        for rh, at in zip(loose_analysis["SNIP-RH"], loose_analysis["SNIP-AT"]):
            if rh.meets_target:
                assert rh.phi < at.phi / 2.5

    def test_opt_meets_56_at_higher_cost(self, loose_analysis):
        opt = {p.zeta_target: p for p in loose_analysis["SNIP-OPT"]}
        assert opt[56.0].meets_target
        assert opt[56.0].rho > opt[48.0].rho


@pytest.fixture(scope="module")
def simulated_sweep():
    """A 4-epoch simulated sweep (short but enough for shape checks)."""
    spec = StudySpec(
        zeta_targets=(16.0, 32.0, 56.0),
        phi_maxes=(DAY / 100,),
        epochs=4,
        seed=13,
    )
    return run_study(spec).grid().budget(DAY / 100)


class TestFig8Simulation:
    def test_rh_tracks_small_targets(self, simulated_sweep):
        point = simulated_sweep.points["SNIP-RH"][0]
        assert point.zeta == pytest.approx(16.0, rel=0.2)

    def test_rh_saturates_below_56(self, simulated_sweep):
        point = simulated_sweep.points["SNIP-RH"][2]
        assert point.zeta < 50.0

    def test_at_meets_targets_at_high_cost(self, simulated_sweep):
        at = simulated_sweep.points["SNIP-AT"]
        rh = simulated_sweep.points["SNIP-RH"]
        # At the mid target both probe enough, but AT pays ~3x per unit.
        assert at[1].zeta == pytest.approx(32.0, rel=0.25)
        assert at[1].rho > 2.0 * rh[1].rho

    def test_simulation_roughly_matches_analysis(self, simulated_sweep):
        """Per-mechanism simulated zeta within 25% of the prediction."""
        for mechanism, column in simulated_sweep.points.items():
            for point in column:
                predicted = point.predicted
                if predicted.zeta > 0:
                    assert point.zeta == pytest.approx(
                        predicted.zeta, rel=0.3
                    ), mechanism
