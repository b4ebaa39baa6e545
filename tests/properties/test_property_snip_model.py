"""Property-based tests for the closed-form SNIP model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snip_model import (
    SnipModel,
    duty_cycle_for_upsilon,
    knee_duty_cycle,
    upsilon,
    upsilon_exponential_lengths,
)

duty_cycles = st.floats(min_value=1e-5, max_value=1.0, allow_nan=False)
contact_lengths = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False)
t_ons = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


@given(duty_cycles, contact_lengths, t_ons)
def test_upsilon_is_a_fraction(duty, length, t_on):
    value = upsilon(duty, length, t_on)
    assert 0.0 <= value <= 1.0
    probed = SnipModel(t_on).expected_probed_seconds(duty, length)
    assert 0.0 <= probed <= length


@given(contact_lengths, t_ons, st.data())
def test_upsilon_monotone_in_duty_cycle(length, t_on, data):
    d1 = data.draw(duty_cycles, label="d1")
    d2 = data.draw(duty_cycles, label="d2")
    lo, hi = sorted((d1, d2))
    assert upsilon(lo, length, t_on) <= upsilon(hi, length, t_on) + 1e-12


@given(duty_cycles, t_ons, st.data())
def test_upsilon_monotone_in_contact_length(duty, t_on, data):
    l1 = data.draw(contact_lengths, label="l1")
    l2 = data.draw(contact_lengths, label="l2")
    lo, hi = sorted((l1, l2))
    assert upsilon(duty, lo, t_on) <= upsilon(duty, hi, t_on) + 1e-12
    model = SnipModel(t_on)
    assert model.expected_probed_seconds(duty, lo) <= (
        model.expected_probed_seconds(duty, hi) + 1e-9
    )


@given(contact_lengths, t_ons)
def test_upsilon_continuous_at_knee(length, t_on):
    knee = knee_duty_cycle(length, t_on)
    if knee >= 1.0:  # knee clamped; the two branches never meet
        return
    below = upsilon(knee * (1 - 1e-9), length, t_on)
    above = upsilon(knee * (1 + 1e-9), length, t_on)
    assert abs(below - above) < 1e-6


@given(contact_lengths, t_ons)
def test_upsilon_at_knee_is_half(length, t_on):
    knee = knee_duty_cycle(length, t_on)
    if knee >= 1.0:
        return
    assert abs(upsilon(knee, length, t_on) - 0.5) < 1e-9


@given(
    st.floats(min_value=0.001, max_value=0.99, allow_nan=False),
    contact_lengths,
    t_ons,
)
def test_inverse_round_trips(target, length, t_on):
    try:
        duty = duty_cycle_for_upsilon(target, length, t_on)
    except Exception:
        # Target unreachable for this geometry: acceptable outcome.
        return
    if duty == 0.0:
        return
    assert abs(upsilon(duty, length, t_on) - target) < 1e-6


@given(duty_cycles, contact_lengths, t_ons)
def test_exponential_expectation_is_a_fraction(duty, mean_length, t_on):
    value = upsilon_exponential_lengths(duty, mean_length, t_on)
    assert -1e-9 <= value <= 1.0 + 1e-9


@settings(max_examples=30)
@given(
    st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
)
def test_exponential_below_fixed_length_at_same_duty(duty, mean_length):
    """Jensen: Υ is concave in length above the knee, so averaging over
    Exp(mean) cannot beat the fixed-length value by much; we assert the
    weaker, always-true bound that both stay within [0, 1] ordering
    sanity: exp-value is within 0.35 of the fixed-length value."""
    t_on = 0.02
    fixed = upsilon(duty, mean_length, t_on)
    mixed = upsilon_exponential_lengths(duty, mean_length, t_on)
    assert abs(mixed - fixed) <= 0.35
