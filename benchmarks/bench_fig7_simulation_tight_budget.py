"""Fig. 7 — simulation results, Φmax = Tepoch/1000.

The paper simulates two weeks in COOJA with normal-jittered contact
processes (cv = 0.1) and plots per-epoch averages.  This bench runs the
same grid as one replicated sweep — three seed replicates per
(mechanism, ζtarget) cell (the paper itself notes "a lot of variance in
simulation results") — through the shared ``run_study`` harness in
:mod:`grid_common`, which covers **both** paper budgets in one study
(Fig. 8 reads the other slice from the same memoized run): once
in-process and once on a 4-worker streaming pool, asserted
byte-identical, with the measured wall-clock speedup reported alongside
the three panels and the analysis prediction.
"""

import pytest
from conftest import emit
from grid_common import JOBS, PAPER_EPOCHS, SEEDS, TARGETS, simulated_series

from repro.experiments.parallel import available_cpus
from repro.experiments.reporting import format_series


def generate_fig7():
    return simulated_series(1000, epochs=PAPER_EPOCHS, replicate_seeds=SEEDS)


def test_fig7_simulation_tight_budget(once):
    averaged, predicted, serial_seconds, parallel_seconds = once(generate_fig7)
    for metric, label in (("zeta", "(a) zeta (s)"), ("phi", "(b) Phi (s)"), ("rho", "(c) rho")):
        series = {name: values[metric] for name, values in averaged.items()}
        emit(
            format_series(
                "zeta_target", TARGETS, series,
                title=(
                    f"Fig. 7{label}, simulated 14 epochs x {len(SEEDS)} seeds, "
                    "Phi_max = Tepoch/1000"
                ),
            )
        )
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
    emit(
        f"replicated grid wall-clock: serial {serial_seconds:.2f}s, "
        f"{JOBS}-worker pool {parallel_seconds:.2f}s "
        f"(speedup {speedup:.2f}x on {available_cpus()} available CPUs)"
    )
    if available_cpus() >= JOBS:
        assert speedup > 1.5
    at = averaged["SNIP-AT"]
    rh = averaged["SNIP-RH"]
    opt = averaged["SNIP-OPT"]
    # AT is budget-starved: flat, well under every target.
    assert max(at["zeta"]) < 12.0
    assert max(at["zeta"]) - min(at["zeta"]) < 1.0
    # RH/OPT track the small targets and saturate near the 28.8 s cap.
    assert rh["zeta"][0] == pytest.approx(16.0, rel=0.15)
    assert rh["zeta"][1] == pytest.approx(24.0, rel=0.15)
    assert max(rh["zeta"]) < 32.0
    assert opt["zeta"][1] == pytest.approx(24.0, rel=0.15)
    # The cost gap survives simulation noise.
    assert at["rho"][0] > 2.0 * rh["rho"][0]
    # Budget invariant in every averaged cell.
    for values in averaged.values():
        assert all(phi <= 86.4 + 1e-6 for phi in values["phi"])
    # Simulation tracks the analysis prediction for RH where feasible.
    rh_predicted = [p.zeta for p in predicted["SNIP-RH"][:2]]
    for simulated, analytic in zip(rh["zeta"][:2], rh_predicted):
        assert simulated == pytest.approx(analytic, rel=0.2)
