"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can distinguish library failures from
programming errors with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A scenario, scheduler, or model was configured with invalid values.

    Raised eagerly at construction time so that misconfiguration never
    surfaces as a silently wrong simulation result.
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation kernel detected an inconsistent internal state."""


class ScheduleError(ReproError, RuntimeError):
    """A scheduling mechanism produced or received an invalid plan."""


class TraceFormatError(ReproError, ValueError):
    """A contact-trace file could not be parsed."""


class InfeasibleError(ReproError, ValueError):
    """An optimization problem has no feasible solution."""
