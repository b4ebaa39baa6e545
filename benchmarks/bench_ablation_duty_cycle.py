"""Ablation — sensitivity of SNIP-RH to its duty-cycle choice.

§VI-C argues that ``d_rh = Ton / mean(Tcontact)`` (the knee) maximizes
rush-hour capacity at the smallest per-unit cost, and that ρ "does not
increase abruptly" when d_rh slightly overshoots the knee.  This bench
sweeps a multiplier on the knee duty-cycle and prints the resulting
capacity and cost, both analytically and on the simulator with the
online estimator disabled (fixed prior).

Ported onto the grid executor layer: each multiplier's simulation is one
pure shard mapped by a
:class:`~repro.experiments.parallel.ParallelExecutor`; the analytic
half stays in-process (closed-form arithmetic).
"""

import pytest
from conftest import emit

from repro.core.schedulers.rh import SnipRhScheduler
from repro.core.snip_model import upsilon
from repro.experiments.parallel import ParallelExecutor
from repro.experiments.reporting import format_series
from repro.experiments.runner import FastRunner
from repro.experiments.scenario import paper_roadside_scenario

MULTIPLIERS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0]
T_ON = 0.02
CONTACT = 2.0
KNEE = T_ON / CONTACT


def _run_duty_cell(multiplier):
    """Executor shard: one fixed-prior simulation at a knee multiplier."""
    scenario = paper_roadside_scenario(
        phi_max_divisor=10,  # effectively unconstrained
        zeta_target=96.0,    # drain everything: probe every contact
        epochs=4,
        seed=5,
    )
    scheduler = SnipRhScheduler(
        scenario.profile,
        scenario.model,
        # Encode the multiplier through the length prior; weight ~0
        # is not allowed, so pick the smallest allowed adaptation.
        initial_contact_length=CONTACT / multiplier,
        ewma_weight=0.01,
    )
    result = FastRunner(scenario, scheduler).run()
    return result.mean_zeta, result.mean_rho


def generate_ablation():
    analytic_capacity = []
    analytic_rho = []
    for multiplier in MULTIPLIERS:
        duty = KNEE * multiplier
        # 48 rush contacts of 2 s per epoch; Phi = Trh * d.
        capacity = 96.0 * upsilon(duty, CONTACT, T_ON)
        phi = 14400.0 * duty
        analytic_capacity.append(capacity)
        analytic_rho.append(phi / capacity)
    pool = ParallelExecutor(jobs=min(4, len(MULTIPLIERS)))
    try:
        cells = pool.map(_run_duty_cell, MULTIPLIERS)
    finally:
        pool.close()
    simulated_capacity = [zeta for zeta, _rho in cells]
    simulated_rho = [rho for _zeta, rho in cells]
    return analytic_capacity, analytic_rho, simulated_capacity, simulated_rho


def test_ablation_duty_cycle(once):
    analytic_capacity, analytic_rho, sim_capacity, sim_rho = once(generate_ablation)
    emit(
        format_series(
            "d_rh/knee",
            MULTIPLIERS,
            {
                "zeta analytic": analytic_capacity,
                "zeta simulated": sim_capacity,
                "rho analytic": analytic_rho,
                "rho simulated": sim_rho,
            },
            title="Ablation: SNIP-RH duty-cycle around the knee",
        )
    )
    knee_index = MULTIPLIERS.index(1.0)
    # rho is flat below/at the knee...
    assert analytic_rho[0] == pytest.approx(analytic_rho[knee_index], rel=1e-6)
    # ...rises slowly just above it (the paper's robustness claim)...
    assert analytic_rho[knee_index + 1] / analytic_rho[knee_index] < 1.15
    # ...and clearly above it far past the knee.
    assert analytic_rho[-1] / analytic_rho[knee_index] > 1.8
    # Capacity is monotone in the duty-cycle but with diminishing
    # returns: the capacity-per-duty slope collapses past the knee.
    assert analytic_capacity == sorted(analytic_capacity)
    slope_low = (analytic_capacity[knee_index] - analytic_capacity[0]) / (
        MULTIPLIERS[knee_index] - MULTIPLIERS[0]
    )
    slope_high = (analytic_capacity[-1] - analytic_capacity[knee_index]) / (
        MULTIPLIERS[-1] - MULTIPLIERS[knee_index]
    )
    assert slope_high < slope_low / 2
