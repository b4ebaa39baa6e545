"""Unit tests for constant-rate data generation."""

import pytest

from repro.errors import ConfigurationError
from repro.node.buffer import DataBuffer
from repro.node.datagen import ConstantRateDataGenerator
from repro.sim.engine import Simulator
from repro.units import DAY


class TestGeneratorProcess:
    def test_deposits_rate_times_time(self):
        sim = Simulator()
        buffer = DataBuffer()
        generator = ConstantRateDataGenerator(sim, buffer, rate=0.01, tick=10.0)
        generator.start()
        sim.run_until(1000.0)
        assert buffer.level == pytest.approx(10.0, rel=0.02)

    def test_deposit_up_to_now_is_exact_mid_tick(self):
        sim = Simulator()
        buffer = DataBuffer()
        generator = ConstantRateDataGenerator(sim, buffer, rate=1.0, tick=100.0)
        generator.start()
        sim.run_until(5.0)
        generator.deposit_up_to_now()
        assert buffer.level == pytest.approx(5.0)

    def test_double_deposit_does_not_double_count(self):
        sim = Simulator()
        buffer = DataBuffer()
        generator = ConstantRateDataGenerator(sim, buffer, rate=1.0, tick=100.0)
        generator.start()
        sim.run_until(5.0)
        generator.deposit_up_to_now()
        generator.deposit_up_to_now()
        assert buffer.level == pytest.approx(5.0)

    def test_total_generated_matches_horizon(self):
        sim = Simulator()
        buffer = DataBuffer()
        rate = 48.0 / DAY  # fills ζtarget = 48 upload-seconds per day
        generator = ConstantRateDataGenerator(sim, buffer, rate=rate, tick=60.0)
        generator.start()
        sim.run_until(DAY)
        generator.deposit_up_to_now()
        assert buffer.total_generated == pytest.approx(48.0, rel=0.01)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ConstantRateDataGenerator(sim, DataBuffer(), rate=0.0)
        with pytest.raises(ConfigurationError):
            ConstantRateDataGenerator(sim, DataBuffer(), rate=1.0, tick=0.0)
