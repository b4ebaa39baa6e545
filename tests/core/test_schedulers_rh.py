"""Unit tests for the SNIP-RH scheduler (the paper's contribution)."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.schedulers.rh import SnipRhScheduler
from repro.core.snip_model import SnipModel
from repro.errors import ConfigurationError
from repro.mobility.contact import Contact
from repro.mobility.profiles import RushHourSpec
from repro.node.buffer import DataBuffer
from repro.node.sensor import ProbingAccount, SensorNode
from repro.radio.duty_cycle import DutyCycleConfig
from repro.units import HOUR

MODEL = SnipModel(t_on=0.02)


def make_scheduler(**kwargs):
    kwargs.setdefault("initial_contact_length", 2.0)
    return SnipRhScheduler(RushHourSpec().to_profile(), MODEL, **kwargs)


def make_node(budget=86.4, buffered=5.0):
    node = SensorNode(
        node_id="s", account=ProbingAccount(budget=budget), buffer=DataBuffer()
    )
    node.buffer.generate(buffered)
    return node


RUSH_TIME = 7.5 * HOUR
OFFPEAK_TIME = 3.0 * HOUR


class TestThreeConditions:
    def test_active_when_all_conditions_hold(self):
        decision = make_scheduler().decide(RUSH_TIME, make_node())
        assert decision.active
        assert decision.reason == "active"

    def test_condition1_not_rush(self):
        decision = make_scheduler().decide(OFFPEAK_TIME, make_node())
        assert not decision.active
        assert decision.reason == "not-rush"

    def test_condition2_no_data(self):
        scheduler = make_scheduler()
        # Teach the threshold that a contact uploads ~1 s of data.
        scheduler.on_probe(0.0, Contact(0.0, 2.0), 1.0, 1.0)
        node = make_node(buffered=0.0)
        decision = scheduler.decide(RUSH_TIME, node)
        assert not decision.active
        assert decision.reason == "no-data"

    def test_condition3_budget(self):
        node = make_node()
        node.account.charge(86.4)
        decision = make_scheduler().decide(RUSH_TIME, node)
        assert not decision.active
        assert decision.reason == "budget"

    def test_evening_rush_also_active(self):
        decision = make_scheduler().decide(17.5 * HOUR, make_node())
        assert decision.active

    def test_second_epoch_rush_recognized(self):
        decision = make_scheduler().decide(86400.0 + RUSH_TIME, make_node())
        assert decision.active


class TestDutyCycleSelection:
    def test_initial_duty_cycle_is_knee_of_prior(self):
        scheduler = make_scheduler(initial_contact_length=2.0)
        config = scheduler.duty_cycle_config()
        assert config.duty_cycle == pytest.approx(0.01)  # Ton / 2 s

    def test_duty_cycle_tracks_learned_length(self):
        scheduler = make_scheduler(initial_contact_length=2.0, ewma_weight=1.0)
        # One probe of a 4 s contact observed through a 2 s cycle:
        # probed window 3.5 >= Tcycle 2 -> estimate 3.5 + 1 = 4.5.
        scheduler.on_probe(0.0, Contact(0.0, 4.0), 3.5, 1.0)
        assert scheduler.contact_length_ewma.value == pytest.approx(4.5)
        assert scheduler.duty_cycle_config().duty_cycle == pytest.approx(
            0.02 / 4.5
        )

    def test_short_probe_doubling_estimator(self):
        scheduler = make_scheduler(initial_contact_length=2.0, ewma_weight=1.0)
        scheduler.on_probe(0.0, Contact(0.0, 2.0), 0.8, 0.8)
        assert scheduler.contact_length_ewma.value == pytest.approx(1.6)

    def test_duty_cycle_clamped_for_tiny_estimates(self):
        scheduler = make_scheduler(initial_contact_length=0.001)
        assert scheduler.duty_cycle_config().duty_cycle == 1.0


class TestDutyCycleMemo:
    """``duty_cycle_config`` is memoized on the contact-length EWMA."""

    def test_repeated_reads_share_one_config(self):
        scheduler = make_scheduler()
        assert scheduler.duty_cycle_config() is scheduler.duty_cycle_config()

    def test_config_follows_on_probe(self):
        scheduler = make_scheduler(initial_contact_length=2.0, ewma_weight=0.5)
        before = scheduler.duty_cycle_config()
        scheduler.on_probe(0.0, Contact(0.0, 8.0), 7.0, 1.0)
        after = scheduler.duty_cycle_config()
        assert after.duty_cycle != before.duty_cycle
        assert after.duty_cycle == MODEL.knee(scheduler.contact_length_ewma.value)

    def test_config_follows_ewma_reset(self):
        scheduler = make_scheduler(initial_contact_length=2.0)
        assert scheduler.duty_cycle_config().duty_cycle == pytest.approx(0.01)
        scheduler.contact_length_ewma.reset(4.0)
        assert scheduler.duty_cycle_config().duty_cycle == pytest.approx(0.005)
        scheduler.contact_length_ewma.reset(2.0)
        assert scheduler.duty_cycle_config().duty_cycle == pytest.approx(0.01)

    def test_failures_are_not_memoized(self):
        scheduler = make_scheduler()
        scheduler.contact_length_ewma.reset(None)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="contact_length"):
                scheduler.duty_cycle_config()
        scheduler.contact_length_ewma.reset(4.0)
        assert scheduler.duty_cycle_config().duty_cycle == pytest.approx(0.005)

    @pytest.mark.parametrize(
        "mean",
        (
            1e-6, 0.005, 0.0199999, 0.02, 0.0200001,  # at or below Ton: duty 1.0
            0.3, 1.0, 2.0, 2.5, 3.7, 17.123456789, 1e3, 1e300,
            4, np.float64(3.3),  # not a float: the validating path
        ),
    )
    def test_cheap_rebuild_equals_validated_config(self, mean):
        scheduler = make_scheduler()
        scheduler.contact_length_ewma.reset(mean)
        config = scheduler.duty_cycle_config()
        expected = DutyCycleConfig(MODEL.t_on, MODEL.knee(mean))
        assert config == expected
        assert config.duty_cycle.hex() == expected.duty_cycle.hex()
        assert config.t_on is expected.t_on
        assert repr(config) == repr(expected)
        assert hash(config) == hash(expected)
        assert pickle.loads(pickle.dumps(config)) == expected
        if mean <= MODEL.t_on:
            assert config.duty_cycle == 1.0

    def test_learned_estimates_rebuild_bit_for_bit(self):
        scheduler = make_scheduler(ewma_weight=0.3)
        for probed in (0.4, 7.0, 0.01, 2.2, 30.0, 0.0199, 5.5):
            scheduler.on_probe(0.0, Contact(0.0, 40.0), probed, 0.1)
            mean = scheduler.contact_length_ewma.value
            assert type(mean) is float
            assert scheduler.duty_cycle_config() == DutyCycleConfig(
                MODEL.t_on, MODEL.knee(mean)
            )

    @pytest.mark.parametrize(
        "bad", (0.0, 0, -2.0, float("nan"), float("inf"), float("-inf"))
    )
    def test_bad_estimates_still_raise(self, bad):
        scheduler = make_scheduler()
        # NaN and infinities no longer get into an Ewma; stand in for
        # one so the scheduler's own guard is what is tested.
        scheduler.contact_length_ewma = SimpleNamespace(value=bad)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="contact_length"):
                scheduler.duty_cycle_config()

    def test_instances_never_share_memo_state(self):
        first = make_scheduler(initial_contact_length=2.0, ewma_weight=1.0)
        second = make_scheduler(initial_contact_length=2.0, ewma_weight=1.0)
        assert first.duty_cycle_config() == second.duty_cycle_config()
        first.on_probe(0.0, Contact(0.0, 4.0), 3.5, 1.0)
        assert first.duty_cycle_config().duty_cycle == pytest.approx(0.02 / 4.5)
        assert second.duty_cycle_config().duty_cycle == pytest.approx(0.01)
        assert first.duty_cycle_config() is not second.duty_cycle_config()


class TestDataThreshold:
    def test_threshold_floors_at_minimum(self):
        scheduler = make_scheduler(min_threshold=0.5)
        assert scheduler.data_threshold() == 0.5

    def test_threshold_tracks_upload_ewma(self):
        scheduler = make_scheduler(ewma_weight=1.0)
        scheduler.on_probe(0.0, Contact(0.0, 2.0), 1.5, 1.2)
        assert scheduler.data_threshold() == pytest.approx(1.2)

    def test_activation_flips_with_buffer_level(self):
        scheduler = make_scheduler(ewma_weight=1.0)
        scheduler.on_probe(0.0, Contact(0.0, 2.0), 1.0, 1.0)
        below = make_node(buffered=0.5)
        above = make_node(buffered=1.5)
        assert not scheduler.decide(RUSH_TIME, below).active
        assert scheduler.decide(RUSH_TIME, above).active


class TestRushFlagManagement:
    def test_set_rush_flags_changes_condition1(self):
        scheduler = make_scheduler()
        flags = [False] * 24
        flags[3] = True
        scheduler.set_rush_flags(flags)
        assert scheduler.decide(3.5 * HOUR, make_node()).active
        assert not scheduler.decide(RUSH_TIME, make_node()).active

    def test_set_rush_flags_validates_length(self):
        with pytest.raises(ConfigurationError):
            make_scheduler().set_rush_flags([True, False])

    def test_all_false_flags_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler().set_rush_flags([False] * 24)

    def test_profile_without_rush_slots_rejected(self):
        profile = RushHourSpec().to_profile().with_rush_flags([False] * 24)
        with pytest.raises(ConfigurationError):
            SnipRhScheduler(profile, MODEL)


class TestValidation:
    def test_invalid_prior_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler(initial_contact_length=0.0)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler(min_threshold=0.0)
