"""Property-based tests for scheduler invariants on random scenarios,
and for the memoized closed-form solves behind SNIP-AT and SNIP-OPT."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_snip_at, analyze_snip_opt
from repro.core.optimizer import TwoStepOptimizer
from repro.core.schedulers.at import SnipAtScheduler, at_duty_cycle_for_target
from repro.core.schedulers.opt import SnipOptScheduler
from repro.core.schedulers.rh import SnipRhScheduler
from repro.core.snip_model import SnipModel, upsilon
from repro.errors import ConfigurationError
from repro.experiments.runner import FastRunner
from repro.experiments.scenario import Scenario
from repro.mobility.profiles import RushHourSpec
from repro.mobility.synthetic import ArrivalStyle, TraceConfig
from repro.units import DAY, require_positive

from test_property_profiles import profiles as slot_profiles


@st.composite
def scenarios(draw):
    rush_interval = draw(st.sampled_from([120.0, 300.0, 600.0]))
    other_interval = draw(st.sampled_from([900.0, 1800.0, 3600.0]))
    contact_length = draw(st.sampled_from([1.0, 2.0, 5.0]))
    profile = RushHourSpec(
        rush_interval=rush_interval,
        other_interval=other_interval,
        contact_length=contact_length,
    ).to_profile()
    phi_max = draw(st.sampled_from([DAY / 2000, DAY / 1000, DAY / 100]))
    zeta_target = draw(st.sampled_from([8.0, 24.0, 56.0]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return Scenario(
        profile=profile,
        model=SnipModel(t_on=0.02),
        phi_max=phi_max,
        zeta_target=zeta_target,
        epochs=1,
        trace_config=TraceConfig(style=ArrivalStyle.NORMAL, epochs=1),
        seed=seed,
    )


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_budget_invariant_for_every_mechanism(scenario):
    factories = [
        lambda: SnipAtScheduler(
            scenario.profile, scenario.model,
            zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
        ),
        lambda: SnipOptScheduler(
            scenario.profile, scenario.model,
            zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
        ),
        lambda: SnipRhScheduler(
            scenario.profile, scenario.model,
            initial_contact_length=scenario.profile.mean_lengths[0],
        ),
    ]
    for factory in factories:
        result = FastRunner(scenario, factory()).run()
        for row in result.metrics.epochs:
            assert row.phi <= scenario.phi_max + 1e-6


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_rh_probes_only_rush_contacts(scenario):
    scheduler = SnipRhScheduler(
        scenario.profile, scenario.model,
        initial_contact_length=scenario.profile.mean_lengths[0],
    )
    runner = FastRunner(scenario, scheduler, record_timeline=True)
    runner.run()
    for record in runner.timeline.intervals("probe"):
        assert scenario.profile.is_rush_at(record.start)


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_metrics_are_physical(scenario):
    scheduler = SnipAtScheduler(
        scenario.profile, scenario.model,
        zeta_target=scenario.zeta_target, phi_max=scenario.phi_max,
    )
    result = FastRunner(scenario, scheduler).run()
    for row in result.metrics.epochs:
        assert row.zeta >= 0
        assert row.phi >= 0
        assert row.uploaded <= row.zeta + 1e-9
        assert row.probed_contacts + row.missed_contacts >= 0


# ----------------------------------------------------------------------
# memoized closed-form solves
# ----------------------------------------------------------------------
models = st.sampled_from([SnipModel(t_on=t_on) for t_on in (0.005, 0.02, 0.1)])
targets = st.floats(min_value=0.01, max_value=500.0, allow_nan=False)
budgets = st.floats(min_value=1.0, max_value=DAY / 10, allow_nan=False)


def unmemoized_at_duty(profile, model, zeta_target):
    """The SNIP-AT bisection as it was before memoization: per-call
    validated Υ, slot statistics re-read on every capacity evaluation."""
    require_positive("zeta_target", zeta_target)

    def capacity(duty):
        return sum(
            profile.expected_contacts(i)
            * profile.mean_lengths[i]
            * upsilon(duty, profile.mean_lengths[i], model.t_on)
            for i in range(profile.slot_count)
            if profile.rate(i) > 0
        )

    if capacity(1.0) < zeta_target - 1e-9:
        raise ConfigurationError(
            f"zeta_target {zeta_target} exceeds the epoch's probe-able capacity "
            f"{capacity(1.0):.3f} even with the radio always on"
        )
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if capacity(mid) < zeta_target:
            lo = mid
        else:
            hi = mid
    return hi


def outcome(fn, *args):
    """``('ok', value)`` or ``('raised', message)`` for one call."""
    try:
        return ("ok", fn(*args))
    except ConfigurationError as exc:
        return ("raised", str(exc))


@settings(max_examples=60, deadline=None)
@given(slot_profiles(), models, targets)
def test_memoized_at_solve_is_bit_identical(profile, model, zeta_target):
    reference = outcome(unmemoized_at_duty, profile, model, zeta_target)
    # Twice: the first call may fill the memo, the second must hit it.
    for _ in range(2):
        observed = outcome(at_duty_cycle_for_target, profile, model, zeta_target)
        assert observed[0] == reference[0]
        if reference[0] == "ok":
            assert observed[1].hex() == reference[1].hex()
        else:
            assert observed[1] == reference[1]


@settings(max_examples=30, deadline=None)
@given(slot_profiles(), models, budgets, targets)
def test_memoized_opt_plan_is_bit_identical(profile, model, phi_max, zeta_target):
    reference = TwoStepOptimizer.from_profile(profile, model).solve(
        phi_max, zeta_target
    )
    for _ in range(2):
        scheduler = SnipOptScheduler(
            profile, model, zeta_target=zeta_target, phi_max=phi_max
        )
        assert scheduler.result == reference
        assert [d.hex() for d in scheduler.plan.duty_cycles] == [
            d.hex() for d in reference.plan.duty_cycles
        ]
        point = analyze_snip_opt(
            profile, model, zeta_target=zeta_target, phi_max=phi_max
        )
        assert (point.zeta, point.phi) == (
            reference.plan.capacity, reference.plan.energy,
        )


@settings(max_examples=30, deadline=None)
@given(slot_profiles(), models, budgets, targets)
def test_memoized_at_scheduler_and_prediction_agree(
    profile, model, phi_max, zeta_target
):
    scheduler = SnipAtScheduler(
        profile, model, zeta_target=zeta_target, phi_max=phi_max
    )
    kind, d_target = outcome(unmemoized_at_duty, profile, model, zeta_target)
    expected = min(d_target if kind == "ok" else 1.0, phi_max / DAY, 1.0)
    assert scheduler.duty_cycle.hex() == expected.hex()
    point = analyze_snip_at(
        profile, model, zeta_target=zeta_target, phi_max=phi_max
    )
    assert point.phi == profile.epoch_length * expected


def test_unreachable_at_target_raises_on_every_call():
    profile = RushHourSpec().to_profile()
    model = SnipModel(t_on=0.02)
    for _ in range(3):
        with pytest.raises(ConfigurationError, match="exceeds the epoch's"):
            at_duty_cycle_for_target(profile, model, 1e6)
    # A failed solve leaves nothing behind: a reachable target still solves.
    assert at_duty_cycle_for_target(profile, model, 24.0) == unmemoized_at_duty(
        profile, model, 24.0
    )


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_zeta_target_messages_unchanged(bad):
    profile = RushHourSpec().to_profile()
    model = SnipModel(t_on=0.02)
    expected = outcome(unmemoized_at_duty, profile, model, bad)
    assert expected[0] == "raised"
    for _ in range(2):
        assert outcome(at_duty_cycle_for_target, profile, model, bad) == expected
    reference = outcome(
        lambda: TwoStepOptimizer.from_profile(profile, model).solve(10.0, bad)
    )
    assert reference[0] == "raised"
    observed = outcome(
        lambda: SnipOptScheduler(profile, model, zeta_target=bad, phi_max=10.0)
    )
    assert observed == reference


@pytest.mark.parametrize("bad", [0.0, -0.02])
def test_bad_t_on_messages_unchanged(bad):
    # SnipModel validates Ton itself; a duck-typed model reaches the
    # solve, which must still reject it with the historical message.
    profile = RushHourSpec().to_profile()
    model = SimpleNamespace(t_on=bad)
    expected = outcome(unmemoized_at_duty, profile, model, 24.0)
    assert expected == (
        "raised", f"t_on must be a positive finite number, got {bad!r}"
    )
    for _ in range(2):
        assert outcome(at_duty_cycle_for_target, profile, model, 24.0) == expected
    with pytest.raises(ConfigurationError, match="t_on must be a positive"):
        SnipModel(t_on=bad)
