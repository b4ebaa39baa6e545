"""Unit tests for the sweep result types a single-budget study assembles."""

import pytest

from repro.core.analysis import evaluate_schedulers
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.sweep import _predictions_for
from repro.units import DAY

PHI_MAX = DAY / 100


def run_sweep(**overrides):
    """One Φmax = Tepoch/100 budget of a small seed-6 study."""
    kwargs = dict(
        zeta_targets=(16.0, 48.0), phi_maxes=(PHI_MAX,), epochs=2, seed=6
    )
    kwargs.update(overrides)
    return run_study(StudySpec(**kwargs)).grid().budget(PHI_MAX)


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep()


class TestSweep:
    def test_grid_dimensions(self, small_sweep):
        assert set(small_sweep.points) == {"SNIP-AT", "SNIP-OPT", "SNIP-RH"}
        assert all(len(col) == 2 for col in small_sweep.points.values())

    def test_points_carry_simulated_and_predicted(self, small_sweep):
        point = small_sweep.points["SNIP-RH"][0]
        assert point.zeta > 0
        assert point.predicted is not None
        assert point.predicted.mechanism == "SNIP-RH"

    def test_series_extraction(self, small_sweep):
        zetas = small_sweep.series("zeta")
        assert set(zetas) == {"SNIP-AT", "SNIP-OPT", "SNIP-RH"}
        assert len(zetas["SNIP-AT"]) == 2

    def test_predicted_series_extraction(self, small_sweep):
        predicted = small_sweep.predicted_series("zeta")
        assert predicted["SNIP-RH"][0] == pytest.approx(16.0, rel=1e-3)

    def test_custom_factory_subset(self):
        sweep = run_sweep(
            zeta_targets=(16.0,), epochs=1, mechanisms=("SNIP-AT",)
        )
        assert set(sweep.points) == {"SNIP-AT"}

    def test_without_predictions(self):
        sweep = run_sweep(zeta_targets=(16.0,), epochs=1, with_predictions=False)
        assert sweep.points["SNIP-RH"][0].predicted is None


class TestPredictionsMemo:
    """Closed-form predictions come from a per-process memo."""

    @staticmethod
    def base():
        return paper_roadside_scenario(phi_max_divisor=100, epochs=2)

    def test_matches_a_direct_evaluation_with_fresh_lists(self):
        base = self.base()
        names = ("SNIP-RH", "fast-only", "SNIP-AT")
        direct = evaluate_schedulers(
            base.profile,
            base.model,
            zeta_targets=(16.0, 48.0),
            phi_max=base.phi_max,
            mechanisms=("SNIP-RH", "SNIP-AT"),
        )
        first = _predictions_for(base, names, (16.0, 48.0))
        assert first == direct
        first["SNIP-RH"].clear()
        del first["SNIP-AT"]
        assert _predictions_for(base, names, (16.0, 48.0)) == direct

    def test_memo_keeps_the_target_type(self):
        base = self.base()
        as_int = _predictions_for(base, ("SNIP-AT",), (16,))
        as_float = _predictions_for(base, ("SNIP-AT",), (16.0,))
        assert type(as_int["SNIP-AT"][0].zeta_target) is int
        assert type(as_float["SNIP-AT"][0].zeta_target) is float

    def test_no_closed_form_mechanism_gives_no_predictions(self):
        assert _predictions_for(self.base(), ("fast-only",), (16.0,)) == {}
