"""Exponentially weighted moving averages.

SNIP-RH learns two quantities online with EWMA filters (paper §VI-B/C):
the mean contact length (sets the duty-cycle) and the mean data uploaded
per probed contact (sets the activation threshold).  In both cases the
paper assigns "a small weight to the new sample" to filter noise.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ConfigurationError
from ..units import require_fraction


class Ewma:
    """A standard EWMA: ``estimate <- (1 - w) * estimate + w * sample``.

    Attributes:
        weight: the new-sample weight w in (0, 1]; the paper recommends a
            small value (default 0.125, the classic TCP RTT constant).
        initial: optional prior; when absent, the first sample seeds the
            estimate directly (no bias toward an arbitrary zero).

    A NaN or infinite prior or sample raises
    :class:`~repro.errors.ConfigurationError`: one infinite sample would
    otherwise turn every later estimate into NaN.
    """

    def __init__(self, weight: float = 0.125, initial: Optional[float] = None) -> None:
        require_fraction("weight", weight)
        if weight == 0.0:
            raise ConfigurationError("weight must be positive")
        self.weight = weight
        self._estimate: Optional[float] = _finite_prior(initial)
        self._samples = 0

    @property
    def value(self) -> Optional[float]:
        """Current estimate (None until seeded by a prior or a sample)."""
        return self._estimate

    @property
    def sample_count(self) -> int:
        """Number of samples observed."""
        return self._samples

    @property
    def is_seeded(self) -> bool:
        """True once the estimate holds a usable value."""
        return self._estimate is not None

    def observe(self, sample: float) -> float:
        """Fold one sample in; returns the updated estimate."""
        if not math.isfinite(sample):
            raise ConfigurationError(f"cannot observe a non-finite sample, got {sample!r}")
        self._samples += 1
        if self._estimate is None:
            self._estimate = float(sample)
        else:
            self._estimate += self.weight * (float(sample) - self._estimate)
        return self._estimate

    def value_or(self, default: float) -> float:
        """The estimate, or *default* before seeding."""
        return default if self._estimate is None else self._estimate

    def reset(self, initial: Optional[float] = None) -> None:
        """Forget all history."""
        self._estimate = _finite_prior(initial)
        self._samples = 0


def _finite_prior(initial: Optional[float]) -> Optional[float]:
    if initial is not None and not math.isfinite(initial):
        raise ConfigurationError(f"initial estimate must be finite, got {initial!r}")
    return initial
