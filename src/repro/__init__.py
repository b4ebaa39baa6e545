"""repro — reproduction of *Exploiting Rush Hours for Energy-Efficient
Contact Probing in Opportunistic Data Collection* (Wu, Brown & Sreenan,
ICDCS Workshops 2011).

The package implements the paper's contribution (the SNIP-AT / SNIP-OPT /
SNIP-RH scheduling mechanisms and the closed-form SNIP probing model)
together with every substrate its evaluation needs: a discrete-event
simulation kernel, a duty-cycled radio with energy accounting, contact
mobility models with rush-hour structure, and an experiment harness that
regenerates each figure of the paper.

Quickstart::

    from repro import paper_roadside_scenario, SnipRhScheduler, FastRunner

    scenario = paper_roadside_scenario(zeta_target=24.0)
    scheduler = SnipRhScheduler(scenario.profile, scenario.model,
                                initial_contact_length=2.0)
    result = FastRunner(scenario, scheduler).run()
    print(result.mean_zeta, result.mean_phi, result.mean_rho)
"""

from ._version import __version__
from .core import (
    AdaptiveSnipRhScheduler,
    AnalysisPoint,
    Ewma,
    LearnerConfig,
    RushHourLearner,
    Scheduler,
    SchedulerDecision,
    SnipAtScheduler,
    SnipModel,
    SnipOptScheduler,
    SnipRhScheduler,
    TwoStepOptimizer,
    evaluate_schedulers,
    rush_hour_gain,
    upsilon,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    ScheduleError,
    SimulationError,
    TraceFormatError,
)
from .experiments import (
    AgreementPoint,
    AgreementResult,
    Engine,
    FastEngine,
    FastRunner,
    FileQueueTransport,
    GridResult,
    MicroEngine,
    PAPER_ENGINES,
    PAPER_MECHANISMS,
    PAPER_ZETA_TARGETS,
    ParallelExecutor,
    ParallelFallbackWarning,
    RunResult,
    RunSpec,
    Scenario,
    SerialExecutor,
    ShardError,
    StudyDocument,
    StudyResult,
    StudySpec,
    Transport,
    engine_factories,
    mechanism_factories,
    paper_roadside_scenario,
    resolve_engine,
    resolve_transport,
    run_study,
    transport_factories,
)
from .mobility import (
    Contact,
    ContactTrace,
    RoadsideScenario,
    RushHourSpec,
    SlotProfile,
    SyntheticTraceGenerator,
    TraceConfig,
    read_trace,
    write_trace,
)
from .network import (
    CommutePattern,
    ContactExtractor,
    Population,
    RoadDeployment,
    SensorSite,
)
from .node import DataBuffer, SensorNode
from .radio import DutyCycleConfig, DutyCycledRadio, EnergyLedger, LinkModel
from .radio.lifetime import Battery, LifetimeModel

__all__ = [
    "__version__",
    # core
    "AdaptiveSnipRhScheduler",
    "AnalysisPoint",
    "Ewma",
    "LearnerConfig",
    "RushHourLearner",
    "Scheduler",
    "SchedulerDecision",
    "SnipAtScheduler",
    "SnipModel",
    "SnipOptScheduler",
    "SnipRhScheduler",
    "TwoStepOptimizer",
    "evaluate_schedulers",
    "rush_hour_gain",
    "upsilon",
    # errors
    "ConfigurationError",
    "InfeasibleError",
    "ReproError",
    "ScheduleError",
    "SimulationError",
    "TraceFormatError",
    # experiments
    "AgreementPoint",
    "AgreementResult",
    "Engine",
    "FastEngine",
    "FastRunner",
    "FileQueueTransport",
    "GridResult",
    "MicroEngine",
    "PAPER_ENGINES",
    "PAPER_MECHANISMS",
    "PAPER_ZETA_TARGETS",
    "ParallelExecutor",
    "ParallelFallbackWarning",
    "RunResult",
    "RunSpec",
    "Scenario",
    "SerialExecutor",
    "ShardError",
    "StudyDocument",
    "StudyResult",
    "StudySpec",
    "Transport",
    "engine_factories",
    "mechanism_factories",
    "paper_roadside_scenario",
    "resolve_engine",
    "resolve_transport",
    "run_study",
    "transport_factories",
    # mobility
    "Contact",
    "ContactTrace",
    "RoadsideScenario",
    "RushHourSpec",
    "SlotProfile",
    "SyntheticTraceGenerator",
    "TraceConfig",
    "read_trace",
    "write_trace",
    # network
    "CommutePattern",
    "ContactExtractor",
    "Population",
    "RoadDeployment",
    "SensorSite",
    # node
    "DataBuffer",
    "SensorNode",
    # radio
    "Battery",
    "DutyCycleConfig",
    "DutyCycledRadio",
    "EnergyLedger",
    "LifetimeModel",
    "LinkModel",
]
