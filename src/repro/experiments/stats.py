"""Replication statistics for simulation experiments.

The paper averages two simulated weeks and notes "a lot of variance";
this module makes that rigor reproducible: run a scenario across seeds,
and report means with Student-t confidence intervals for every metric.
Used by the reporting layer and available to downstream users who want
error bars on their own sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from scipy import stats as scipy_stats

from ..errors import ConfigurationError
from .parallel import SerialExecutor
from .runner import RunResult, RunSpec, SchedulerFactory, execute_run_spec
from .scenario import Scenario

#: The metrics replicated by default (RunResult attributes).
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
    critical = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half_width = critical * math.sqrt(variance / n)
    return IntervalEstimate(mean, half_width, confidence, n)


@dataclass
class ReplicatedResult:
    """Per-metric interval estimates plus the raw runs."""

    estimates: Dict[str, IntervalEstimate]
    runs: List[RunResult]

    def __getitem__(self, metric: str) -> IntervalEstimate:
        return self.estimates[metric]


def estimates_from_runs(
    runs: Sequence[RunResult],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    confidence: float = 0.95,
) -> Dict[str, IntervalEstimate]:
    """Interval-estimate each metric across replicate *runs*.

    Metric names resolve against :class:`RunResult` first and fall back
    to its :class:`~repro.experiments.metrics.RunMetrics`.  This is the
    aggregation step shared by :func:`replicate` and every replicated
    study cell (:class:`repro.experiments.sweep.SweepPoint`).
    """
    if not runs:
        raise ConfigurationError("need at least one run")
    estimates = {}
    for metric in metrics:
        samples = [getattr(run, metric, None) for run in runs]
        if any(sample is None for sample in samples):
            samples = [getattr(run.metrics, metric) for run in runs]
        estimates[metric] = interval_from_samples(
            [float(s) for s in samples], confidence=confidence
        )
    return estimates


def replicate(
    scenario: Scenario,
    scheduler_factory: SchedulerFactory,
    *,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    metrics: Sequence[str] = DEFAULT_METRICS,
    confidence: float = 0.95,
    executor=None,
) -> ReplicatedResult:
    """Run *scenario* across *seeds* and estimate each metric.

    The scheduler factory is invoked fresh per replication so learning
    state never leaks between seeds.  Pass an
    :class:`~repro.experiments.parallel.ParallelExecutor` (or any
    transport's ``imap``) to fan the replications out to worker processes (the factory must then be
    picklable; unpicklable factories transparently run serially).
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    specs = [
        RunSpec(
            scenario=scenario.with_seed(seed),
            mechanism=getattr(scheduler_factory, "__name__", "custom"),
            replicate=index,
            factory=scheduler_factory,
        )
        for index, seed in enumerate(seeds)
    ]
    executor = executor if executor is not None else SerialExecutor()
    runs: List[RunResult] = [None] * len(specs)  # type: ignore[list-item]
    for index, run in executor.imap(execute_run_spec, specs):
        runs[index] = run
    return ReplicatedResult(
        estimates=estimates_from_runs(runs, metrics=metrics, confidence=confidence),
        runs=runs,
    )
