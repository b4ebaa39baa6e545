"""Fig. 8 — simulation results, Φmax = Tepoch/100.

The loose-budget slice of the same shared two-budget ``run_study`` study
as Fig. 7 (:mod:`grid_common`; a memoized lookup when Fig. 7 ran
first): serial and 4-worker streaming executions must agree
byte-for-byte and the pool path must actually be taken.  Shape pinned:
AT meets every target at ~3x RH's
per-unit cost; RH tracks targets through 48 s and saturates below 56 s
(the rush-capacity cap); OPT stays the cheapest mechanism that meets
each target.
"""

import pytest
from conftest import emit
from grid_common import JOBS, PAPER_EPOCHS, SEEDS, TARGETS, simulated_series

from repro.experiments.parallel import available_cpus
from repro.experiments.reporting import format_series


def generate_fig8():
    averaged, _predicted, serial_seconds, parallel_seconds = simulated_series(
        100, epochs=PAPER_EPOCHS, replicate_seeds=SEEDS
    )
    return averaged, serial_seconds, parallel_seconds


def test_fig8_simulation_loose_budget(once):
    averaged, serial_seconds, parallel_seconds = once(generate_fig8)
    for metric, label in (("zeta", "(a) zeta (s)"), ("phi", "(b) Phi (s)"), ("rho", "(c) rho")):
        series = {name: values[metric] for name, values in averaged.items()}
        emit(
            format_series(
                "zeta_target", TARGETS, series,
                title=(
                    f"Fig. 8{label}, simulated 14 epochs x {len(SEEDS)} seeds, "
                    "Phi_max = Tepoch/100"
                ),
            )
        )
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
    emit(
        f"replicated grid wall-clock: serial {serial_seconds:.2f}s, "
        f"{JOBS}-worker pool {parallel_seconds:.2f}s "
        f"(speedup {speedup:.2f}x on {available_cpus()} available CPUs)"
    )
    at = averaged["SNIP-AT"]
    rh = averaged["SNIP-RH"]
    opt = averaged["SNIP-OPT"]
    # AT tracks every target (within simulation noise) at high cost.
    for index, target in enumerate(TARGETS):
        assert at["zeta"][index] == pytest.approx(target, rel=0.15)
    assert at["phi"][-1] > 450.0
    # RH tracks targets up to 48 and saturates below 56.
    for index, target in enumerate(TARGETS[:4]):
        assert rh["zeta"][index] == pytest.approx(target, rel=0.15)
    assert rh["zeta"][-1] < 50.0
    assert rh["zeta"][-1] == pytest.approx(rh["zeta"][-2], rel=0.1)
    # Cost ordering: OPT <= RH << AT on the shared feasible range.
    for index in range(4):
        assert rh["phi"][index] < at["phi"][index] / 2.0
        assert opt["phi"][index] <= rh["phi"][index] * 1.2
    # The paper's factor: AT pays ~3.3x RH per probed second.
    assert at["rho"][1] / rh["rho"][1] == pytest.approx(3.3, rel=0.25)
