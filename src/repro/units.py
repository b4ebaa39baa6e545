"""Time and energy unit helpers.

All simulation times in this library are plain ``float`` **seconds**.
This module centralizes the named constants and small conversion helpers
so that scenario code reads naturally (``2 * HOUR`` instead of ``7200``)
and unit mistakes are easy to audit.

Energy is tracked two ways, matching the paper:

* *radio-on seconds* — the paper's Φ metric ("the time that the radio is
  turned on during an epoch");
* *joules* — derived from per-state current draws and supply voltage, see
  :mod:`repro.radio.energy`.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: One second, the base unit.
SECOND: float = 1.0
#: One millisecond in seconds.
MILLISECOND: float = 1e-3
#: One microsecond in seconds.
MICROSECOND: float = 1e-6
#: One minute in seconds.
MINUTE: float = 60.0
#: One hour in seconds.
HOUR: float = 3600.0
#: One day in seconds.  The paper's default epoch (``Tepoch``).
DAY: float = 24 * HOUR
#: One week in seconds.  The paper simulates two of these.
WEEK: float = 7 * DAY

#: Numerical tolerance used for time comparisons throughout the library.
#: One nanosecond is far below any physical timescale in the model
#: (radio on-periods are tens of milliseconds).
TIME_EPSILON: float = 1e-9


def hours(value: float) -> float:
    """Return *value* hours expressed in seconds."""
    return value * HOUR


def minutes(value: float) -> float:
    """Return *value* minutes expressed in seconds."""
    return value * MINUTE


def milliseconds(value: float) -> float:
    """Return *value* milliseconds expressed in seconds."""
    return value * MILLISECOND


def require_positive(name: str, value: float) -> float:
    """Validate that *value* is a finite number greater than zero.

    Returns the value so it can be used inline in constructors::

        self.t_on = require_positive("t_on", t_on)
    """
    if not _is_finite_number(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def require_non_negative(name: str, value: float) -> float:
    """Validate that *value* is a finite number greater than or equal to zero."""
    if not _is_finite_number(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def require_fraction(name: str, value: float) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    if not _is_finite_number(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def _is_finite_number(value: object) -> bool:
    """Return True when *value* is an int/float that is neither NaN nor infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value == value and value not in (float("inf"), float("-inf"))


def format_duration(seconds: float) -> str:
    """Render a duration as a compact human-readable string.

    >>> format_duration(7200)
    '2h00m'
    >>> format_duration(93.5)
    '1m33.5s'
    >>> format_duration(0.02)
    '20.0ms'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < MINUTE:
        return f"{seconds:.1f}s"
    if seconds < HOUR:
        whole_minutes = int(seconds // MINUTE)
        rest = seconds - whole_minutes * MINUTE
        return f"{whole_minutes}m{rest:04.1f}s"
    whole_hours = int(seconds // HOUR)
    rest_minutes = int(round((seconds - whole_hours * HOUR) / MINUTE))
    if rest_minutes == 60:
        whole_hours += 1
        rest_minutes = 0
    return f"{whole_hours}h{rest_minutes:02d}m"
