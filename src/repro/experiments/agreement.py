"""Replicated cross-engine agreement grids (micro vs fast, statistically).

The paper's quantities are produced by the fast contact-driven engine;
the cycle-accurate micro engine (the COOJA-fidelity substitute, per the
SNIP companion paper) is the ground truth it must reproduce.  Until the
unified :class:`~repro.experiments.engine.Engine` protocol existed,
that equivalence was validated only by ad-hoc short-horizon tests; this
module makes the claim **statistical**: a replicated
``mechanism × ζtarget × Φmax × replicate × engine`` grid where each
cell's replicate seeds are shared between the engines, so every
comparison is paired on an identical contact process, and the per-cell
deltas carry Student-t confidence intervals
(:func:`repro.experiments.stats.estimates_from_runs` /
:func:`~repro.experiments.stats.interval_from_samples`).

A :class:`~repro.experiments.spec.StudySpec` listing two or more
engines *is* such a grid: :func:`~repro.experiments.spec.run_study`
flattens it into pure :class:`~repro.experiments.runner.RunSpec` shards
— the engine name is just one more shard field — and assembles one
:class:`AgreementResult` per candidate engine from the types defined
here.  Reassembly is by shard index, so the result is byte-identical for
jobs=1, jobs=N, or any adversarial completion order, and micro cells
(orders of magnitude slower; keep horizons short) interleave with fast
cells on the pool.

CLI: ``repro-snip run`` with a spec listing two engines, e.g.
``repro-snip run --spec examples/agreement_gate.json`` or ``repro-snip
run --set 'axes.engines=["fast","micro"]'``; the gate variant used in
CI is :meth:`AgreementResult.gate_violations` / ``repro-snip run
--gate TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..units import require_non_negative
from .reporting import format_csv
from .runner import RunResult
from .stats import IntervalEstimate, estimates_from_runs, interval_from_samples
from .sweep import _finite_or_none

__all__ = [
    "AGREEMENT_METRICS",
    "AGREEMENT_EXPORT_COLUMNS",
    "AgreementPoint",
    "AgreementResult",
]

#: The per-cell metrics whose candidate-minus-baseline deltas are
#: interval-estimated: the paper's ζ and Φ per-epoch means plus the
#: per-epoch probed-contact count (the discrete quantity the engines
#: must agree on contact-by-contact).
AGREEMENT_METRICS = ("mean_zeta", "mean_phi", "probed_per_epoch")


def _metric_value(result: RunResult, metric: str) -> float:
    """Extract one agreement metric from a run."""
    if metric == "probed_per_epoch":
        return result.metrics.total_probed / result.metrics.epoch_count
    return float(getattr(result, metric))


@dataclass
class AgreementPoint:
    """One (mechanism, ζtarget, Φmax) cell of a two-engine comparison.

    Holds the replicate runs of both engines — *baseline* and
    *candidate* replicate ``r`` share the same scenario seed, hence the
    same contact trace — plus interval estimates: per-engine metric CIs
    (via :func:`~repro.experiments.stats.estimates_from_runs`) and the
    paired per-replicate candidate−baseline deltas for every
    :data:`AGREEMENT_METRICS` entry.
    """

    mechanism: str
    zeta_target: float
    phi_max: float
    baseline: List[RunResult]
    candidate: List[RunResult]
    baseline_estimates: Optional[Dict[str, IntervalEstimate]] = None
    candidate_estimates: Optional[Dict[str, IntervalEstimate]] = None
    deltas: Dict[str, IntervalEstimate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.baseline) != len(self.candidate) or not self.baseline:
            raise ConfigurationError(
                "baseline and candidate need the same positive replicate "
                f"count, got {len(self.baseline)} vs {len(self.candidate)}"
            )
        if self.baseline_estimates is None:
            self.baseline_estimates = estimates_from_runs(self.baseline)
        if self.candidate_estimates is None:
            self.candidate_estimates = estimates_from_runs(self.candidate)
        if not self.deltas:
            self.deltas = {
                metric: interval_from_samples(
                    [
                        _metric_value(cand, metric) - _metric_value(base, metric)
                        for base, cand in zip(self.baseline, self.candidate)
                    ]
                )
                for metric in AGREEMENT_METRICS
            }

    @property
    def n_replicates(self) -> int:
        """Paired replicates behind this cell."""
        return len(self.baseline)

    def delta(self, metric: str) -> IntervalEstimate:
        """The candidate−baseline CI for one :data:`AGREEMENT_METRICS` entry."""
        try:
            return self.deltas[metric]
        except KeyError:
            raise ConfigurationError(
                f"unknown agreement metric {metric!r}; "
                f"known: {sorted(self.deltas)}"
            ) from None

    def engine_mean(self, side: str, metric: str) -> float:
        """Replicate mean of *metric* for ``"baseline"`` or ``"candidate"``.

        Served from the per-engine interval estimates where the metric
        has one (``mean_zeta``/``mean_phi``/``mean_rho``), computed
        directly otherwise (``probed_per_epoch``).
        """
        if side == "baseline":
            estimates, selected = self.baseline_estimates, self.baseline
        elif side == "candidate":
            estimates, selected = self.candidate_estimates, self.candidate
        else:
            raise ConfigurationError(
                f"side must be 'baseline' or 'candidate', got {side!r}"
            )
        if estimates is not None and metric in estimates:
            return estimates[metric].mean
        return sum(_metric_value(run, metric) for run in selected) / len(selected)


#: Column order shared by :meth:`AgreementResult.to_csv`/``to_json``.
AGREEMENT_EXPORT_COLUMNS = (
    "baseline_engine", "candidate_engine",
    "phi_max", "zeta_target", "mechanism", "n_replicates",
    "baseline_mean_zeta", "candidate_mean_zeta",
    "delta_mean_zeta", "delta_mean_zeta_low", "delta_mean_zeta_high",
    "baseline_mean_phi", "candidate_mean_phi",
    "delta_mean_phi", "delta_mean_phi_low", "delta_mean_phi_high",
    "baseline_probed_per_epoch", "candidate_probed_per_epoch",
    "delta_probed_per_epoch", "delta_probed_per_epoch_low",
    "delta_probed_per_epoch_high",
)


@dataclass
class AgreementResult:
    """A full two-engine agreement grid.

    Points are ordered Φmax-outermost, then ζtarget, then mechanism
    (matching the shard flattening of
    :func:`~repro.experiments.spec.run_study`).
    """

    points: List[AgreementPoint]
    engines: Tuple[str, str]
    phi_maxes: Tuple[float, ...]
    zeta_targets: Tuple[float, ...]
    mechanisms: Tuple[str, ...]

    @property
    def baseline_engine(self) -> str:
        """The reference engine name (usually ``"fast"``)."""
        return self.engines[0]

    @property
    def candidate_engine(self) -> str:
        """The engine under validation (usually ``"micro"``)."""
        return self.engines[1]

    @property
    def n_replicates(self) -> int:
        """Paired replicates per cell (uniform across the grid)."""
        return self.points[0].n_replicates if self.points else 0

    def budget(self, phi_max: float) -> List[AgreementPoint]:
        """The cells of one Φmax budget, in (ζtarget, mechanism) order."""
        key = float(phi_max)
        if key not in {float(value) for value in self.phi_maxes}:
            raise ConfigurationError(
                f"no Phi_max {phi_max!r} in this agreement grid; have "
                f"{sorted(self.phi_maxes)}"
            )
        return [point for point in self.points if point.phi_max == key]

    def max_abs_delta(self, metric: str) -> float:
        """Largest |mean candidate−baseline delta| across all cells."""
        return max(abs(point.delta(metric).mean) for point in self.points)

    def cell_rows(self) -> List[Dict[str, object]]:
        """One flat record per cell (columns:
        :data:`AGREEMENT_EXPORT_COLUMNS`)."""
        rows: List[Dict[str, object]] = []
        for point in self.points:
            row: Dict[str, object] = {
                "baseline_engine": self.baseline_engine,
                "candidate_engine": self.candidate_engine,
                "phi_max": point.phi_max,
                "zeta_target": point.zeta_target,
                "mechanism": point.mechanism,
                "n_replicates": point.n_replicates,
            }
            for metric in AGREEMENT_METRICS:
                delta = point.delta(metric)
                row[f"baseline_{metric}"] = _finite_or_none(
                    point.engine_mean("baseline", metric)
                )
                row[f"candidate_{metric}"] = _finite_or_none(
                    point.engine_mean("candidate", metric)
                )
                row[f"delta_{metric}"] = _finite_or_none(delta.mean)
                row[f"delta_{metric}_low"] = _finite_or_none(delta.low)
                row[f"delta_{metric}_high"] = _finite_or_none(delta.high)
            rows.append(row)
        return rows

    def gate_violations(
        self,
        tolerance: float,
        *,
        metrics: Sequence[str] = AGREEMENT_METRICS,
    ) -> List[str]:
        """Cells whose paired delta CI excludes zero beyond *tolerance*.

        The CI-based agreement gate (ROADMAP "agreement tolerance gates
        in CI"): a cell violates the gate when its candidate−baseline
        confidence interval lies **entirely** outside ``[-tolerance,
        tolerance]`` — i.e. the data rules out both "the engines agree"
        and "they disagree by no more than the golden tolerance".

        A single-replicate cell has an infinite half-width, so its CI
        can never exclude the tolerance band: such a gate would pass
        *vacuously*, certifying nothing.  Rather than silently bless the
        grid, the gate refuses to run — any gated cell whose delta has
        fewer than two replications raises
        :class:`~repro.errors.ConfigurationError` (under the CLI's
        ``--gate`` this surfaces as a nonzero exit).  Run two or more
        paired replicates to make the gate meaningful.  A NaN or
        infinite *tolerance* is refused for the same reason: no CI can
        lie beyond it, so every cell would pass.

        Returns one human-readable line per violating (cell, metric),
        empty when the grid passes.
        """
        require_non_negative("gate tolerance", tolerance)
        under_replicated = [
            f"{point.mechanism} zeta_target={point.zeta_target:g} "
            f"Phi_max={point.phi_max:g} "
            f"(replications={min(point.delta(metric).replications for metric in metrics)})"
            for point in self.points
            if any(
                point.delta(metric).replications < 2 for metric in metrics
            )
        ]
        if under_replicated:
            raise ConfigurationError(
                "agreement gate is vacuous below 2 paired replicates (an "
                "infinite delta CI can never exclude the tolerance band); "
                "re-run with replicates >= 2. Offending cell(s): "
                + "; ".join(under_replicated)
            )
        violations: List[str] = []
        for point in self.points:
            for metric in metrics:
                delta = point.delta(metric)
                if delta.low > tolerance or delta.high < -tolerance:
                    violations.append(
                        f"{point.mechanism} zeta_target={point.zeta_target:g} "
                        f"Phi_max={point.phi_max:g} {metric}: delta {delta} "
                        f"excludes 0 beyond ±{tolerance:g}"
                    )
        return violations

    def to_dict(self) -> Dict[str, object]:
        """The agreement grid as a JSON-clean document."""
        return {
            "baseline_engine": self.baseline_engine,
            "candidate_engine": self.candidate_engine,
            "phi_maxes": list(self.phi_maxes),
            "zeta_targets": list(self.zeta_targets),
            "mechanisms": list(self.mechanisms),
            "n_replicates": self.n_replicates,
            "cells": self.cell_rows(),
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The agreement grid as a strict-JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """The agreement grid as CSV text, one row per cell."""
        return format_csv(
            AGREEMENT_EXPORT_COLUMNS,
            [
                [row[column] for column in AGREEMENT_EXPORT_COLUMNS]
                for row in self.cell_rows()
            ],
        )

    def __iter__(self) -> Iterator[AgreementPoint]:
        """Iterate the cells in flattening order."""
        return iter(self.points)

    def __len__(self) -> int:
        """Number of (Φmax, ζtarget, mechanism) cells."""
        return len(self.points)
