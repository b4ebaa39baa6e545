"""Experiment harness: scenarios, simulators, metrics, sweeps, reports.

* :mod:`~repro.experiments.scenario` — the paper's roadside scenario and
  general scenario configuration;
* :mod:`~repro.experiments.runner` — the fast contact-driven simulator
  (events only at contacts and decision points; beacon arithmetic is
  analytic) used for the Fig. 7 / Fig. 8 reproductions;
* :mod:`~repro.experiments.micro` — the cycle-accurate simulator that
  enumerates every radio wake-up (the COOJA-fidelity substitute), used
  to validate the fast engine and equation 1;
* :mod:`~repro.experiments.metrics` — ζ/Φ/ρ extraction and aggregation;
* :mod:`~repro.experiments.spec` — declarative :class:`StudySpec`
  studies and :func:`run_study`, the single way to run the mechanism ×
  ζtarget × Φmax paper grid (with seed replication, an engine axis, and
  streaming progress);
* :mod:`~repro.experiments.sweep` — the grid result types
  (:class:`SweepResult`, :class:`GridResult`) with confidence
  intervals and JSON/CSV export;
* :mod:`~repro.experiments.engine` — the unified
  :class:`~repro.experiments.engine.Engine` protocol and named engine
  resolution (one run API across the fast, micro, and future engines);
* :mod:`~repro.experiments.agreement` — paired per-cell deltas of
  multi-engine studies, which make the engine-equivalence claim
  statistical;
* :mod:`~repro.experiments.parallel` — the
  :class:`~repro.experiments.parallel.Transport` base class and
  deterministic process-pool orchestration of grid shards, with
  optional shard batching;
* :mod:`~repro.experiments.transport` — the three named
  execution backends (``"serial"``, ``"pool"``, ``"file-queue"``),
  including the directory-backed multi-host work queue;
* :mod:`~repro.experiments.worker` — the ``python -m repro worker``
  loop that serves file-queue tickets from any host;
* :mod:`~repro.experiments.registry` — named scheduler factories,
  engines, and scenarios that resolve across process boundaries;
* :mod:`~repro.experiments.reporting` — plain-text tables, series, CSV.
"""

from .scenario import Scenario, paper_roadside_scenario, PAPER_ZETA_TARGETS
from .metrics import EpochMetrics, RunMetrics
from .registry import (
    PAPER_MECHANISMS,
    engine_factories,
    mechanism_factories,
)
from .engine import (
    Engine,
    PAPER_ENGINES,
    available_engines,
    resolve_engine,
)
from .runner import (
    FastEngine,
    FastRunner,
    RunResult,
    RunSpec,
    execute_run_spec,
    generate_trace,
)
from .micro import MicroEngine
from .agreement import (
    AGREEMENT_METRICS,
    AgreementPoint,
    AgreementResult,
)
from .parallel import (
    ParallelExecutor,
    ParallelFallbackWarning,
    SerialExecutor,
    ShardError,
    replicate_seed,
)
from .transport import (
    BUILTIN_TRANSPORTS,
    FileQueueTransport,
    Transport,
    resolve_transport,
    validate_transport,
)
from .sweep import GridResult, SweepResult
from .spec import (
    NetworkSection,
    StudyDocument,
    StudyResult,
    StudySpec,
    run_study,
)
from .reporting import format_table, format_series

__all__ = [
    "Scenario",
    "paper_roadside_scenario",
    "PAPER_ZETA_TARGETS",
    "PAPER_MECHANISMS",
    "PAPER_ENGINES",
    "EpochMetrics",
    "RunMetrics",
    "Engine",
    "FastEngine",
    "FastRunner",
    "MicroEngine",
    "RunResult",
    "RunSpec",
    "engine_factories",
    "available_engines",
    "resolve_engine",
    "mechanism_factories",
    "execute_run_spec",
    "generate_trace",
    "AGREEMENT_METRICS",
    "AgreementPoint",
    "AgreementResult",
    "ParallelExecutor",
    "ParallelFallbackWarning",
    "SerialExecutor",
    "ShardError",
    "BUILTIN_TRANSPORTS",
    "FileQueueTransport",
    "Transport",
    "resolve_transport",
    "validate_transport",
    "replicate_seed",
    "GridResult",
    "SweepResult",
    "NetworkSection",
    "StudyDocument",
    "StudyResult",
    "StudySpec",
    "run_study",
    "format_table",
    "format_series",
]
