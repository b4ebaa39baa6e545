"""Integration tests: the fast engine agrees with the cycle-accurate one.

The fast runner replaces per-cycle events with beacon-train arithmetic;
these tests pin that substitution against the micro engine on identical
contact traces — pointwise through the unified engine API, and
statistically through the replicated agreement grid.
"""

import pytest

from repro.core.schedulers.at import SnipAtScheduler
from repro.core.schedulers.rh import SnipRhScheduler
from repro.experiments.engine import resolve_engine
from repro.experiments.runner import generate_trace
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.units import DAY

fast_engine = resolve_engine("fast")
micro_engine = resolve_engine("micro")


def shared_trace(scenario):
    return generate_trace(scenario)


class TestSnipAtAgreement:
    def test_identical_zeta_and_phi(self):
        """AT has no feedback loop: the engines must agree closely.

        Residual differences come from beacon-train phase (the micro
        radio free-runs from t=0; the fast engine re-anchors once at the
        first decision) — a per-contact effect that averages out.
        """
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=24.0, epochs=2, seed=5
        )
        trace = shared_trace(scenario)

        def make():
            return SnipAtScheduler(
                scenario.profile, scenario.model,
                zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
            )

        fast = fast_engine.run(scenario, make(), trace=trace)
        micro = micro_engine.run(scenario, make(), trace=trace)
        assert fast.mean_phi == pytest.approx(micro.mean_phi, rel=0.01)
        assert fast.mean_zeta == pytest.approx(micro.mean_zeta, rel=0.10)
        assert fast.metrics.total_probed == pytest.approx(
            micro.metrics.total_probed, abs=6
        )


class TestSnipRhAgreement:
    def test_same_order_zeta_phi(self):
        """RH's learning loop is path-dependent; agreement is statistical."""
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=24.0, epochs=2, seed=5
        )
        trace = shared_trace(scenario)

        def make():
            return SnipRhScheduler(
                scenario.profile, scenario.model, initial_contact_length=2.0
            )

        fast = fast_engine.run(scenario, make(), trace=trace)
        micro = micro_engine.run(scenario, make(), trace=trace)
        assert fast.mean_zeta == pytest.approx(micro.mean_zeta, rel=0.3)
        assert fast.mean_phi == pytest.approx(micro.mean_phi, rel=0.4)

    def test_both_respect_budget(self):
        scenario = paper_roadside_scenario(
            phi_max_divisor=1000, zeta_target=56.0, epochs=2, seed=8
        )
        trace = shared_trace(scenario)

        def make():
            return SnipRhScheduler(
                scenario.profile, scenario.model, initial_contact_length=2.0
            )

        for result in (
            fast_engine.run(scenario, make(), trace=trace),
            micro_engine.run(scenario, make(), trace=trace),
        ):
            for row in result.metrics.epochs:
                assert row.phi <= scenario.phi_max + scenario.model.t_on


class TestGoldenAgreementGrid:
    """Satellite golden test: the replicated grid pins the equivalence.

    A 1-epoch micro-vs-fast grid with paired seeds: the per-epoch
    probed-contact deltas (and ζ/Φ deltas) must sit within tolerance for
    the feedback-free mechanisms, making the paper's equivalence claim a
    statistical statement rather than a handful of spot checks.
    """

    @pytest.fixture(scope="class")
    def agreement(self):
        spec = StudySpec(
            zeta_targets=(24.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=1,
            seed=5,
            mechanisms=("SNIP-AT", "SNIP-OPT"),
            engines=("fast", "micro"),
            replicates=2,
            with_predictions=False,
        )
        return run_study(spec).agreement

    def test_probed_contact_deltas_within_tolerance(self, agreement):
        """Per-epoch probed-contact counts agree to a few contacts."""
        for point in agreement:
            delta = point.delta("probed_per_epoch")
            assert abs(delta.mean) <= 6.0, (
                f"{point.mechanism}: probed/epoch delta {delta.mean}"
            )

    def test_zeta_and_phi_deltas_within_tolerance(self, agreement):
        for point in agreement:
            fast_zeta = point.engine_mean("baseline", "mean_zeta")
            assert abs(point.delta("mean_zeta").mean) <= 0.10 * fast_zeta + 1.0
            fast_phi = point.engine_mean("baseline", "mean_phi")
            assert abs(point.delta("mean_phi").mean) <= 0.01 * fast_phi + 0.1

    def test_paired_seeds_share_traces(self, agreement):
        """Replicate r of both engines really ran the same scenario."""
        for point in agreement:
            for base, cand in zip(point.baseline, point.candidate):
                assert base.scenario.seed == cand.scenario.seed
                assert list(generate_trace(base.scenario)) == list(
                    generate_trace(cand.scenario)
                )
                assert [e.arrived_contacts for e in base.metrics.epochs] == [
                    e.arrived_contacts for e in cand.metrics.epochs
                ]
