"""Unit tests for beacon-train arithmetic — the heart of fast probing."""

import pytest

from repro.radio.beacon import Beacon, BeaconSchedule
from repro.radio.duty_cycle import DutyCycleConfig


def schedule(duty=0.01, t_on=0.02, phase=0.0):
    return BeaconSchedule(DutyCycleConfig(t_on=t_on, duty_cycle=duty), phase)


class TestBeaconSchedule:
    def test_next_beacon_on_grid(self):
        sched = schedule()  # Tcycle = 2
        assert sched.next_beacon_at_or_after(0.0) == pytest.approx(0.0)
        assert sched.next_beacon_at_or_after(0.1) == pytest.approx(2.0)
        assert sched.next_beacon_at_or_after(2.0) == pytest.approx(2.0)

    def test_phase_shifts_grid(self):
        sched = schedule(phase=0.5)
        assert sched.next_beacon_at_or_after(0.0) == pytest.approx(0.5)
        assert sched.next_beacon_at_or_after(0.6) == pytest.approx(2.5)

    def test_phase_is_folded_into_cycle(self):
        # phase 5.0 with Tcycle 2 is equivalent to phase 1.0
        sched = schedule(phase=5.0)
        assert sched.next_beacon_at_or_after(0.0) == pytest.approx(1.0)

    def test_first_beacon_in_window_hit(self):
        sched = schedule()
        assert sched.first_beacon_in(1.5, 2.5) == pytest.approx(2.0)

    def test_first_beacon_in_window_miss(self):
        sched = schedule()
        assert sched.first_beacon_in(0.1, 1.9) is None

    def test_first_beacon_empty_window(self):
        sched = schedule()
        assert sched.first_beacon_in(3.0, 3.0) is None

    def test_beacon_exactly_at_window_start_counts(self):
        sched = schedule()
        assert sched.first_beacon_in(2.0, 2.5) == pytest.approx(2.0)

    def test_beacon_exactly_at_window_end_does_not_count(self):
        sched = schedule()
        assert sched.first_beacon_in(1.0, 2.0) is None

    def test_beacons_in_counts_grid_points(self):
        sched = schedule()
        assert sched.beacons_in(0.0, 10.0) == 5  # 0, 2, 4, 6, 8
        assert sched.beacons_in(0.5, 2.5) == 1
        assert sched.beacons_in(5.0, 5.0) == 0

    def test_float_robustness_far_from_origin(self):
        sched = schedule()
        start = 1_000_000.0
        beacon = sched.next_beacon_at_or_after(start)
        assert beacon >= start - 1e-6
        assert beacon - start < 2.0 + 1e-6


class TestBeacon:
    def test_beacon_dataclass_defaults(self):
        beacon = Beacon(sender_id="s", time=1.0)
        assert beacon.airtime < 0.01
