"""Unit tests for the data buffer."""

import pytest

from repro.errors import ConfigurationError
from repro.node.buffer import DataBuffer, FluidBuffer


class TestUncappedBuffer:
    def test_generate_raises_level(self):
        buffer = DataBuffer()
        buffer.generate(3.0)
        assert buffer.level == pytest.approx(3.0)
        assert buffer.free_space == float("inf")

    def test_upload_drains_and_returns_shipped(self):
        buffer = DataBuffer()
        buffer.generate(3.0)
        assert buffer.upload(2.0) == pytest.approx(2.0)
        assert buffer.level == pytest.approx(1.0)

    def test_upload_limited_by_level(self):
        buffer = DataBuffer()
        buffer.generate(1.0)
        assert buffer.upload(5.0) == pytest.approx(1.0)
        assert buffer.level == 0.0

    def test_negative_amounts_rejected(self):
        buffer = DataBuffer()
        with pytest.raises(ConfigurationError):
            buffer.generate(-1.0)
        with pytest.raises(ConfigurationError):
            buffer.upload(-1.0)

    def test_conservation_invariant(self):
        buffer = DataBuffer()
        for amount in (1.0, 2.5, 0.25):
            buffer.generate(amount)
        buffer.upload(1.75)
        assert buffer.conservation_error() < 1e-12


class TestCappedBuffer:
    def test_overflow_is_dropped_and_counted(self):
        buffer = DataBuffer(capacity=2.0)
        stored = buffer.generate(5.0)
        assert stored == pytest.approx(2.0)
        assert buffer.total_dropped == pytest.approx(3.0)
        assert buffer.level == pytest.approx(2.0)

    def test_space_frees_after_upload(self):
        buffer = DataBuffer(capacity=2.0)
        buffer.generate(2.0)
        buffer.upload(1.5)
        assert buffer.generate(1.0) == pytest.approx(1.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            DataBuffer(capacity=0.0)

    def test_conservation_with_drops(self):
        buffer = DataBuffer(capacity=1.0)
        buffer.generate(3.0)
        buffer.upload(0.5)
        buffer.generate(2.0)
        assert buffer.conservation_error() < 1e-12


class TestFluidBuffer:
    RATE = 10.0 / 86400.0

    def test_level_is_generated_minus_uploaded_to_one_rounding(self):
        buffer = FluidBuffer()
        uploaded = 0.0
        for k in range(1, 3000):
            generated = self.RATE * (60.0 * k)
            buffer.fill_to(generated)
            if k % 7 == 0:
                uploaded += buffer.upload(0.05)
            expected = generated - uploaded
            assert buffer.level == (expected if expected > 0.0 else 0.0)
        assert buffer.total_uploaded == uploaded
        assert buffer.conservation_error() < 1e-12

    def test_upload_is_capped_by_the_level(self):
        buffer = FluidBuffer()
        buffer.fill_to(1.0)
        assert buffer.upload(0.25) == 0.25
        assert buffer.upload(5.0) == 0.75
        assert buffer.level == 0.0
        buffer.fill_to(1.5)
        assert buffer.level == 0.5
