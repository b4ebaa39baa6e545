"""Discrete-event simulation kernel.

This package is the substrate that replaces COOJA in the paper's
evaluation: a deterministic event-driven scheduler
(:class:`~repro.sim.engine.Simulator`), typed events
(:mod:`repro.sim.events`), cooperative processes
(:mod:`repro.sim.process`), reproducible per-purpose random streams
(:mod:`repro.sim.rng`), and interval timelines for post-hoc checks
(:mod:`repro.sim.timeline`).
"""

from .engine import Simulator
from .events import Event, EventKind
from .process import Process, ProcessState
from .rng import RandomStreams
from .timeline import Timeline, IntervalRecord

__all__ = [
    "Simulator",
    "Event",
    "EventKind",
    "Process",
    "ProcessState",
    "RandomStreams",
    "Timeline",
    "IntervalRecord",
]
