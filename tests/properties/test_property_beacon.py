"""Property-based tests for beacon-train arithmetic."""

from hypothesis import given
from hypothesis import strategies as st

from repro.radio.beacon import BeaconSchedule
from repro.radio.duty_cycle import DutyCycleConfig

configs = st.builds(
    DutyCycleConfig,
    t_on=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    duty_cycle=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@given(configs, phases, times)
def test_next_beacon_is_at_or_after_query(config, phase, time):
    schedule = BeaconSchedule(config, phase)
    beacon = schedule.next_beacon_at_or_after(time)
    assert beacon >= time - 1e-6
    # And within one cycle of the query.
    assert beacon - time <= config.t_cycle + 1e-6


@given(configs, phases, times)
def test_next_beacon_is_on_the_grid(config, phase, time):
    schedule = BeaconSchedule(config, phase)
    beacon = schedule.next_beacon_at_or_after(time)
    offset = (beacon - schedule.phase) / config.t_cycle
    assert abs(offset - round(offset)) < 1e-6


@given(configs, phases, times, st.floats(min_value=1e-3, max_value=1e3))
def test_first_beacon_in_window_is_inside(config, phase, start, width):
    schedule = BeaconSchedule(config, phase)
    beacon = schedule.first_beacon_in(start, start + width)
    if beacon is not None:
        assert start - 1e-6 <= beacon < start + width + 1e-6


@given(configs, phases, times, st.floats(min_value=1e-3, max_value=1e3))
def test_window_longer_than_cycle_always_hits(config, phase, start, extra):
    schedule = BeaconSchedule(config, phase)
    width = config.t_cycle + extra
    assert schedule.first_beacon_in(start, start + width) is not None


@given(configs, phases, times, st.floats(min_value=1e-3, max_value=1e3))
def test_beacon_count_matches_window_over_cycle(config, phase, start, width):
    schedule = BeaconSchedule(config, phase)
    count = schedule.beacons_in(start, start + width)
    expected = width / config.t_cycle
    assert abs(count - expected) <= 1.0 + 1e-6
