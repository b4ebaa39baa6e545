"""Result types and assembly helpers for :func:`~repro.experiments.spec.run_study`.

The paper's evaluation is a grid: mechanism x ζtarget x Φmax.  A study
(:class:`~repro.experiments.spec.StudySpec`) runs that grid and this
module holds what it assembles: one :class:`SweepPoint` per cell,
pairing the simulated replicates (with Student-t confidence intervals)
with the cell's closed-form prediction; one :class:`SweepResult` per
Φmax budget; and the whole-grid :class:`GridResult` with its
JSON-clean document form.  The helpers here stream shards through an executor —
reporting each completed shard through a :data:`ProgressCallback`,
described by :func:`progress_event` —
and fold the index-ordered results back into those types, so the
assembled result is byte-identical for any worker count or completion
order.  The sharding/seeding contract is documented in
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.analysis import AnalysisPoint, evaluate_schedulers
from ..core.snip_model import SnipModel
from ..errors import ConfigurationError
from ..mobility.profiles import SlotProfile
from .parallel import Transport
from .runner import RunResult, RunSpec, execute_run_spec
from .scenario import Scenario
from .stats import IntervalEstimate, estimates_from_runs

__all__ = [
    "SweepPoint",
    "SweepResult",
    "GridResult",
    "GRID_EXPORT_COLUMNS",
    "ProgressCallback",
    "progress_event",
]

#: Streaming observer: ``progress(shard, result, completed, total)`` is
#: invoked once per finished shard of any study (grid cell or fleet
#: node), in completion order, where *completed* counts shards done so
#: far out of *total*.  :func:`progress_event` describes one call.
ProgressCallback = Callable[[RunSpec, RunResult, int, int], None]


def progress_event(
    shard: RunSpec, result: RunResult, completed: int, total: int
) -> Dict[str, object]:
    """The JSON-clean event for one :data:`ProgressCallback` call.

    A grid shard (one on the scenario axis) is a ``"cell"`` event
    carrying its coordinates, the scenario as its axis label; a fleet
    shard (no axis entry: its contacts come from one node of the
    commuter fleet) is a ``"node"`` event carrying the node id.  Both
    carry the counters and the run's mean ζ/Φ, plus ``cached: True``
    when the cell cache served the result.  The service streams these
    events and the CLI prints them, so local and served progress agree.
    """
    if shard.scenario_ref is None:
        event: Dict[str, object] = {
            "event": "node",
            "node": shard.scenario.contact_source.node_id,
        }
    else:
        event = {
            "event": "cell",
            "scenario": shard.scenario_ref.label,
            "mechanism": shard.mechanism,
            "engine": shard.engine,
            "replicate": shard.replicate,
            "zeta_target": shard.scenario.zeta_target,
            "phi_max": shard.scenario.phi_max,
        }
    event.update({
        "completed": completed,
        "total": total,
        "mean_zeta": result.mean_zeta,
        "mean_phi": result.mean_phi,
    })
    if result.from_cache:
        event["cached"] = True
    return event


@dataclass
class SweepPoint:
    """One (mechanism, ζtarget) cell of the evaluation grid.

    With replication the cell holds every replicate's run plus interval
    estimates; ``simulated`` stays the replicate-0 run for backward
    compatibility, and the ζ/Φ/ρ properties report means across
    replicates (identical to the single run when there is only one).
    """

    mechanism: str
    zeta_target: float
    simulated: RunResult
    predicted: Optional[AnalysisPoint]
    replicates: List[RunResult] = field(default_factory=list)
    estimates: Optional[Dict[str, IntervalEstimate]] = None

    def __post_init__(self) -> None:
        if not self.replicates:
            self.replicates = [self.simulated]
        if self.estimates is None:
            self.estimates = estimates_from_runs(self.replicates)

    @property
    def n_replicates(self) -> int:
        """Number of seed replicates behind this cell."""
        return len(self.replicates)

    @property
    def zeta(self) -> float:
        """Mean probed capacity per epoch (the paper's ζ plots)."""
        return self.estimates["mean_zeta"].mean

    @property
    def phi(self) -> float:
        """Mean probing overhead per epoch (the paper's Φ plots)."""
        return self.estimates["mean_phi"].mean

    @property
    def rho(self) -> float:
        """Mean per-unit cost (the paper's ρ plots)."""
        return self.estimates["mean_rho"].mean

    def interval(self, metric: str) -> IntervalEstimate:
        """The confidence interval for *metric* ('zeta', 'phi', 'rho')."""
        key = metric if metric in self.estimates else f"mean_{metric}"
        return self.estimates[key]


@dataclass
class SweepResult:
    """One Φmax budget's grid, keyed by mechanism then ζtarget order."""

    points: Dict[str, List[SweepPoint]]
    zeta_targets: Sequence[float]

    @property
    def n_replicates(self) -> int:
        """Replicates per cell (uniform across the grid)."""
        for column in self.points.values():
            for point in column:
                return point.n_replicates
        return 0

    def series(self, metric: str) -> Dict[str, List[float]]:
        """Extract one metric as {mechanism: [value per target]}."""
        return {
            mechanism: [getattr(point, metric) for point in column]
            for mechanism, column in self.points.items()
        }

    def ci_series(self, metric: str) -> Dict[str, List[IntervalEstimate]]:
        """One metric's interval estimates, {mechanism: [CI per target]}."""
        return {
            mechanism: [point.interval(metric) for point in column]
            for mechanism, column in self.points.items()
        }

    def predicted_series(self, metric: str) -> Dict[str, List[float]]:
        """Same, from the closed-form predictions."""
        return {
            mechanism: [
                getattr(point.predicted, metric) if point.predicted else float("nan")
                for point in column
            ]
            for mechanism, column in self.points.items()
        }


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    """*value* as a float, or None when missing or non-finite.

    Serialization helper: strict JSON has no ``Infinity``/``NaN``
    literals, and a single-replicate cell's CI half-width is infinite.
    """
    if value is None or not math.isfinite(value):
        return None
    return float(value)


#: Column order of :meth:`GridResult.cell_rows` records, and so of the
#: cells in study artifacts (:meth:`~repro.experiments.spec.StudyResult.to_csv`).
GRID_EXPORT_COLUMNS = (
    "engine", "phi_max", "zeta_target", "mechanism", "n_replicates",
    "zeta", "zeta_low", "zeta_high",
    "phi", "phi_low", "phi_high",
    "rho", "rho_low", "rho_high",
    "predicted_zeta", "predicted_phi", "predicted_rho",
)


@dataclass
class GridResult:
    """The full paper grid: one :class:`SweepResult` per Φmax budget."""

    budgets: Dict[float, SweepResult]
    phi_maxes: Tuple[float, ...]
    zeta_targets: Tuple[float, ...]
    #: The engine every cell ran on (an engine-registry name).
    engine: str = "fast"
    #: The named scenario every cell ran under (a scenario label from
    #: :class:`repro.scenarios.ScenarioRef`), or None for the implicit
    #: paper workload — kept None there so pre-scenario-axis artifacts
    #: stay byte-identical.
    scenario: Optional[str] = None

    def budget(self, phi_max: float) -> SweepResult:
        """The sweep for one Φmax budget (exact value, in seconds)."""
        key = float(phi_max)
        if key not in self.budgets:
            raise ConfigurationError(
                f"no Phi_max {phi_max!r} in this grid; have "
                f"{sorted(self.budgets)}"
            )
        return self.budgets[key]

    @property
    def n_replicates(self) -> int:
        """Replicates per cell (uniform across budgets)."""
        for sweep in self.budgets.values():
            return sweep.n_replicates
        return 0

    def series(self, metric: str) -> Dict[float, Dict[str, List[float]]]:
        """One metric across the whole grid: {Φmax: {mechanism: [...]}}."""
        return {
            phi_max: self.budgets[phi_max].series(metric)
            for phi_max in self.phi_maxes
        }

    def __iter__(self) -> Iterator[Tuple[float, SweepResult]]:
        """Iterate ``(phi_max, sweep)`` pairs in the requested order."""
        return iter((phi_max, self.budgets[phi_max]) for phi_max in self.phi_maxes)

    def __len__(self) -> int:
        """Number of Φmax budgets in the grid."""
        return len(self.phi_maxes)

    def cell_rows(self) -> List[Dict[str, object]]:
        """One flat record per (Φmax, ζtarget, mechanism) cell.

        The tabular view behind :meth:`to_dict` and the study CSV
        (column order: :data:`GRID_EXPORT_COLUMNS`).  CI bounds are
        None when not finite (single-replicate cells); predictions are
        None for mechanisms without a closed form.
        """
        rows: List[Dict[str, object]] = []
        for phi_max, sweep in self:
            for mechanism, column in sweep.points.items():
                for point in column:
                    row: Dict[str, object] = {}
                    if self.scenario is not None:
                        row["scenario"] = self.scenario
                    row.update({
                        "engine": self.engine,
                        "phi_max": phi_max,
                        "zeta_target": point.zeta_target,
                        "mechanism": mechanism,
                        "n_replicates": point.n_replicates,
                    })
                    for metric in ("zeta", "phi", "rho"):
                        interval = point.interval(metric)
                        row[metric] = _finite_or_none(interval.mean)
                        row[f"{metric}_low"] = _finite_or_none(interval.low)
                        row[f"{metric}_high"] = _finite_or_none(interval.high)
                    for metric in ("zeta", "phi", "rho"):
                        predicted = (
                            getattr(point.predicted, metric)
                            if point.predicted is not None
                            else None
                        )
                        row[f"predicted_{metric}"] = _finite_or_none(predicted)
                    rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, object]:
        """The grid as a JSON-clean document (plain lists/dicts/None).

        Top level: ``engine``, ``phi_maxes``, ``zeta_targets``,
        ``n_replicates``, and ``cells`` (the :meth:`cell_rows` records),
        plus ``scenario`` when the grid ran under a named scenario (the
        key is absent otherwise, keeping pre-scenario-axis artifacts
        byte-identical).  The per-engine entry of
        :meth:`repro.experiments.spec.StudyResult.to_dict`.
        """
        document: Dict[str, object] = {"engine": self.engine}
        if self.scenario is not None:
            document["scenario"] = self.scenario
        document.update({
            "phi_maxes": list(self.phi_maxes),
            "zeta_targets": list(self.zeta_targets),
            "n_replicates": self.n_replicates,
            "cells": self.cell_rows(),
        })
        return document


def _stream_results(
    executor: Transport,
    specs: Sequence[RunSpec],
    progress: Optional[ProgressCallback],
) -> List[RunResult]:
    """Execute *specs*, reassembling by shard index (contract rule 3).

    Streams through the executor's ``imap``; *progress* fires per shard
    as it completes.
    """
    results: List[Optional[RunResult]] = [None] * len(specs)
    completed = 0
    for index, result in executor.imap(execute_run_spec, specs):
        results[index] = result
        completed += 1
        if progress is not None:
            progress(specs[index], result, completed, len(specs))
    return results  # type: ignore[return-value]


def _predictions_for(
    base: Scenario,
    names: Sequence[str],
    zeta_targets: Sequence[float],
) -> Dict[str, List[AnalysisPoint]]:
    """Closed-form predictions for the mechanisms that have them.

    Fresh lists every call, served from a per-process memo: every study
    on one profile and budget (each service study, say) asks for the
    same series.
    """
    known = tuple(
        name for name in names if name in ("SNIP-AT", "SNIP-OPT", "SNIP-RH")
    )
    if not known:
        return {}
    series = _memoized_predictions(
        base.profile, base.model, base.phi_max, known, *zeta_targets
    )
    return {name: list(points) for name, points in series.items()}


@lru_cache(maxsize=16, typed=True)
def _memoized_predictions(
    profile: SlotProfile,
    model: SnipModel,
    phi_max: float,
    mechanisms: Tuple[str, ...],
    *zeta_targets: float,
) -> Dict[str, Tuple[AnalysisPoint, ...]]:
    """:func:`evaluate_schedulers` on hashable inputs, memoized per process.

    The targets are separate arguments so ``typed`` tells 16 from 16.0
    (each point records its target as given).  Points are frozen, so
    callers share them and copy only the containers.
    """
    series = evaluate_schedulers(
        profile,
        model,
        zeta_targets=zeta_targets,
        phi_max=phi_max,
        mechanisms=mechanisms,
    )
    return {name: tuple(points) for name, points in series.items()}


def _assemble_sweep(
    names: Sequence[str],
    zeta_targets: Sequence[float],
    n_seeds: int,
    results: Sequence[RunResult],
    predictions: Mapping[str, List[AnalysisPoint]],
) -> SweepResult:
    """Fold one budget's index-ordered results into a :class:`SweepResult`."""
    points: Dict[str, List[SweepPoint]] = {name: [] for name in names}
    cursor = 0
    for target_index, target in enumerate(zeta_targets):
        for name in names:
            replicates = list(results[cursor : cursor + n_seeds])
            cursor += n_seeds
            predicted = (
                predictions[name][target_index] if name in predictions else None
            )
            points[name].append(
                SweepPoint(
                    mechanism=name,
                    zeta_target=target,
                    simulated=replicates[0],
                    predicted=predicted,
                    replicates=replicates,
                )
            )
    return SweepResult(points=points, zeta_targets=zeta_targets)
