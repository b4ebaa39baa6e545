"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    ScheduleError,
    SimulationError,
    TraceFormatError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            SimulationError,
            ScheduleError,
            TraceFormatError,
            InfeasibleError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        """Callers using stdlib idioms still catch our validation errors."""
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(InfeasibleError, ValueError)
        assert issubclass(TraceFormatError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(ScheduleError, RuntimeError)

    def test_single_except_clause_catches_everything(self):
        for exc in (ConfigurationError, SimulationError, TraceFormatError):
            with pytest.raises(ReproError):
                raise exc("boom")
