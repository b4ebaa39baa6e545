"""Ablation — time-slot granularity N (paper §VI-A).

The paper: "With a larger N, Rush Hours can be specified more
accurately, but it takes more effort to identify Rush Hours among these
time-slots."  This bench quantifies the first half of that trade-off:
with rush traffic concentrated in two 2 h windows, how much energy does
a coarse N waste by marking whole oversized slots?

Setup: the true rush windows are 07:00-09:00 and 17:00-19:00 but shifted
by 30 minutes (07:30-09:30 / 17:30-19:30) so they straddle slot
boundaries at every N — the situation where granularity matters.

Ported onto the grid executor layer: each slot count is one pure shard
(a module-level function over picklable ``(slot_count, trace)`` items)
mapped by a :class:`~repro.experiments.parallel.ParallelExecutor`, so
the ablation runs on the same sharded code path as the figure grids.
"""

import pytest
from conftest import emit

from repro.core.schedulers.rh import SnipRhScheduler
from repro.experiments.parallel import ParallelExecutor
from repro.experiments.reporting import format_series
from repro.experiments.runner import FastRunner
from repro.experiments.scenario import Scenario
from repro.core.snip_model import SnipModel
from repro.mobility.profiles import RushHourSpec
from repro.mobility.synthetic import ArrivalStyle, TraceConfig
from repro.mobility.synthetic import SyntheticTraceGenerator
from repro.sim.rng import RandomStreams
from repro.units import DAY

SLOT_COUNTS = [6, 12, 24, 48, 96]
TRUE_WINDOWS = ((7.5, 9.5), (17.5, 19.5))


def make_profile(slot_count):
    return RushHourSpec(
        slot_count=slot_count,
        rush_windows=TRUE_WINDOWS,
        rush_interval=300.0,
        other_interval=1800.0,
        contact_length=2.0,
    ).to_profile()


def _run_slot_cell(item):
    """Executor shard: one slot-count cell against the shared fine trace."""
    slot_count, trace = item
    profile = make_profile(slot_count)
    scenario = Scenario(
        profile=profile,
        model=SnipModel(t_on=0.02),
        phi_max=DAY / 100.0,
        zeta_target=24.0,
        epochs=7,
        trace_config=TraceConfig(style=ArrivalStyle.NORMAL, epochs=7),
        seed=3,
    )
    scheduler = SnipRhScheduler(
        profile, scenario.model, initial_contact_length=2.0
    )
    result = FastRunner(scenario, scheduler, trace=trace).run()
    marked = sum(profile.rush_flags) * profile.slot_length / 3600.0
    return result.mean_zeta, result.mean_phi, marked


def generate_ablation():
    # One shared fine-grained trace: contacts truly follow the shifted
    # windows; each N only changes the *scheduler's* slot marking.
    trace = SyntheticTraceGenerator(
        make_profile(96),
        TraceConfig(style=ArrivalStyle.NORMAL, cv=0.1, epochs=7),
        streams=RandomStreams(3),
    ).generate()
    pool = ParallelExecutor(jobs=min(4, len(SLOT_COUNTS)))
    try:
        cells = pool.map(_run_slot_cell, [(n, trace) for n in SLOT_COUNTS])
    finally:
        pool.close()
    zetas, phis, marked_hours = (list(values) for values in zip(*cells))
    return zetas, phis, marked_hours


def test_ablation_slot_count(once):
    zetas, phis, marked_hours = once(generate_ablation)
    emit(
        format_series(
            "N (slots)",
            SLOT_COUNTS,
            {
                "zeta (s)": zetas,
                "Phi (s)": phis,
                "marked hours": marked_hours,
            },
            title="Ablation: slot granularity N, true rush windows offset 30 min",
        )
    )
    # Every granularity still collects the target (rush capacity is
    # ample; SNIP-RH's data gating adapts the probing time).
    for zeta in zetas:
        assert zeta == pytest.approx(24.0, rel=0.25)
    # Finer slots mark fewer off-rush hours: the marked span shrinks
    # monotonically toward the true 4 h as N grows.
    assert marked_hours[0] >= marked_hours[-1]
    assert marked_hours[-1] == pytest.approx(4.0, abs=0.51)
