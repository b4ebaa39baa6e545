"""Replication statistics for simulation experiments.

The paper averages two simulated weeks and notes "a lot of variance";
this module makes that rigor reproducible: a study cell's seed
replicates (``replicates`` / ``replicate_seeds`` of a
:class:`~repro.experiments.spec.StudySpec`) reduce to means with
Student-t confidence intervals for every metric.  Used by the reporting
layer and available to downstream users who want error bars on their
own runs.

The Student-t critical value behind every interval comes from a small
standard-library quantile, not from ``scipy.stats`` (whose import alone
would dominate the package's start-up).  For df <= 2000 it solves
``P(T > t) = 1 - p`` by safeguarded Newton steps, evaluating the tail as
the regularized incomplete beta ``I_x(df/2, 1/2) / 2`` at
``x = df / (df + t^2)`` with the modified-Lentz continued fraction, its
prefactor built from ``math.log1p`` and a Stirling-series Gamma ratio.
Above df = 2000 (where rounding ``x`` near 1 would cost the continued
fraction digits) the four-term Cornish-Fisher expansion in ``1/df``
around the normal quantile is used instead.  Over df 1-500 and
confidence 0.5-0.999 the result agrees with ``scipy.stats.t.ppf`` to
better than 1e-12 relative error (pinned by the test suite).  One solve
costs a fraction of a millisecond; critical values are memoized per
``(confidence, df)``, so a study pays one solve per distinct replicate
count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Dict, Sequence

from ..errors import ConfigurationError
from .runner import RunResult

#: The metrics replicated by default (RunMetrics attributes).
DEFAULT_METRICS = ("mean_zeta", "mean_phi", "mean_rho")


@dataclass(frozen=True)
class IntervalEstimate:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    replications: int

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when *value* lies inside the interval."""
        return self.low <= value <= self.high

    @property
    def is_vacuous(self) -> bool:
        """True when the interval constrains nothing.

        A single replication (or an otherwise infinite half-width)
        yields ``low = -inf`` / ``high = +inf``: :meth:`contains` is
        then True for *every* value, so any check built on the interval
        passes trivially.  Consumers that certify results — the
        agreement gate, report tables — must treat vacuous estimates
        specially rather than letting them masquerade as evidence.
        """
        return self.replications < 2 or math.isinf(self.half_width)

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def interval_from_samples(
    samples: Sequence[float], *, confidence: float = 0.95
) -> IntervalEstimate:
    """Student-t confidence interval from i.i.d. replications."""
    if not samples:
        raise ConfigurationError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return IntervalEstimate(mean, float("inf"), confidence, 1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    critical = _t_critical(confidence, n - 1)
    half_width = critical * math.sqrt(variance / n)
    return IntervalEstimate(mean, half_width, confidence, n)


# ----------------------------------------------------------------------
# Student-t quantile (standard library only)
# ----------------------------------------------------------------------
_EPS = sys.float_info.epsilon
_TINY = 1e-300
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_MAX_ITERATIONS = 200

#: Above this many degrees of freedom the Cornish-Fisher expansion is
#: exact to ~1e-15 and replaces the continued fraction.
_EXPANSION_DF = 2000

#: Coefficients of lgamma(x) - [(x - 1/2) ln x - x + ln(2 pi) / 2] in
#: odd powers of 1/x (Stirling's series; 1e-16 absolute for x >= 10).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(x: float) -> float:
    inverse = 1.0 / x
    inverse_sq = inverse * inverse
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * inverse_sq + coefficient
    return total * inverse


def _log_gamma_ratio(a: float) -> float:
    """``ln(Gamma(a + 1/2) / Gamma(a))`` without lgamma cancellation."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (
        a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        + _stirling_remainder(a + 0.5) - _stirling_remainder(a)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)`` (modified Lentz's method)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    fraction = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            delta = c * d
            fraction *= delta
        if abs(delta - 1.0) <= _EPS:
            return fraction
    raise ArithmeticError(f"incomplete beta fraction did not converge at x={x}")


def _t_tail_excess(t: float, df: int, p: float) -> float:
    """``P(T > t) - (1 - p)`` for t > 0 and p >= 1/2.

    ``P(T > t) = I_x(df/2, 1/2) / 2`` at ``x = df / (df + t^2)``.  The
    fraction is evaluated on whichever side of the incomplete beta
    converges quickly: ``I_x(a, b)`` itself (a small upper tail, compared
    with the exact ``1 - p``), or ``1 - I_(1-x)(b, a)`` (a small central
    mass ``P(0 < T < t)``, compared with the exact ``p - 1/2``), so
    neither side subtracts nearly equal numbers.
    """
    a = 0.5 * df
    t_sq = t * t
    x = df / (df + t_sq)
    y = t_sq / (df + t_sq)
    front = math.exp(
        _log_gamma_ratio(a) - _LOG_SQRT_PI
        - a * math.log1p(t_sq / df) + 0.5 * math.log(y)
    )
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x) / a - (1.0 - p)
    return (p - 0.5) - front * _beta_fraction(0.5, a, y)


def _t_density(t: float, df: int) -> float:
    a = 0.5 * df
    return math.exp(
        _log_gamma_ratio(a) - _LOG_SQRT_PI - 0.5 * math.log(df)
        - (a + 0.5) * math.log1p(t * t / df)
    )


def _cornish_fisher(p: float, df: int) -> float:
    """Four-term expansion of the t quantile in ``1/df`` (A&S 26.7.5)."""
    z = NormalDist().inv_cdf(p)
    z_sq = z * z
    g1 = (z_sq + 1) * z / 4
    g2 = ((5 * z_sq + 16) * z_sq + 3) * z / 96
    g3 = (((3 * z_sq + 19) * z_sq + 17) * z_sq - 15) * z / 384
    g4 = ((((79 * z_sq + 776) * z_sq + 1482) * z_sq - 1920) * z_sq - 945) * z / 92160
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _t_quantile(p: float, df: int) -> float:
    """The *p*-quantile of Student's t with *df* degrees of freedom."""
    if p < 0.5:
        return -_t_quantile(1.0 - p, df)
    if p == 0.5:
        return 0.0
    if p >= 1.0:
        return math.inf
    t = _cornish_fisher(p, df)
    if df > _EXPANSION_DF:
        return t
    # Newton on P(T > t) = 1 - p, kept inside the bracket [low, high].
    low, high = 0.0, math.inf
    for _ in range(_MAX_ITERATIONS):
        excess = _t_tail_excess(t, df, p)
        if excess == 0.0:
            return t
        if excess > 0.0:
            low = t
        else:
            high = t
        candidate = t + excess / _t_density(t, df)
        if not low < candidate < high:
            candidate = 2.0 * t if math.isinf(high) else 0.5 * (low + high)
        if abs(candidate - t) <= 4.0 * _EPS * candidate:
            return candidate
        t = candidate
    raise ArithmeticError(f"t quantile did not converge at p={p}, df={df}")


@lru_cache(maxsize=64)
def _t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value, memoized per (confidence, df)."""
    return _t_quantile((1 + confidence) / 2, df)


def estimates_from_runs(
    runs: Sequence[RunResult],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    confidence: float = 0.95,
) -> Dict[str, IntervalEstimate]:
    """Interval-estimate each metric across replicate *runs*.

    Metric names are :class:`~repro.experiments.metrics.RunMetrics`
    attributes, read from each run's ``metrics``.  This is the
    aggregation step of every replicated study cell
    (:class:`repro.experiments.sweep.SweepPoint`,
    :class:`repro.experiments.agreement.AgreementPoint`).
    """
    if not runs:
        raise ConfigurationError("need at least one run")
    estimates = {}
    for metric in metrics:
        estimates[metric] = interval_from_samples(
            [float(getattr(run.metrics, metric)) for run in runs],
            confidence=confidence,
        )
    return estimates
