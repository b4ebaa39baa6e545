"""Golden regression: the paper-default sweep at seed 0 is pinned.

These values were captured from the serial single-budget sweep
implementation that predates the parallel orchestration layer (one
``FastRunner`` per cell, one shared scenario seed).  The rewrite must
preserve them bit-for-bit — for the historical serial path and for the
process-pool path alike — so any change to seeding, sharding, or
aggregation that alters seed behaviour fails loudly here.  The
``"vector"`` engine reproduces the fast runner's arithmetic exactly, so
it must hit the same values with no tolerance at all.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import ParallelExecutor
from repro.experiments.scenario import PAPER_ZETA_TARGETS
from repro.experiments.spec import StudySpec, run_study
from repro.units import DAY

#: Captured from the pre-parallel implementation: paper scenario,
#: Φmax = Tepoch/1000, 14 epochs, seed 0, the paper's six ζtargets.
GOLDEN = {
    ("SNIP-AT", "zeta"): [7.8989781706619135] * 6,
    ("SNIP-AT", "phi"): [86.4] * 6,
    ("SNIP-AT", "rho"): [10.938123657678107] * 6,
    ("SNIP-OPT", "zeta"): [
        15.762760920486212, 22.312937398064086, 29.140958909015744,
        29.140958909015744, 29.140958909015744, 29.140958909015744,
    ],
    ("SNIP-OPT", "phi"): [
        48.00000000000013, 71.99999999999967, 86.39999999999988,
        86.39999999999988, 86.39999999999988, 86.39999999999988,
    ],
    ("SNIP-OPT", "rho"): [
        3.045151813323293, 3.2268274999170004, 2.9648990024576407,
        2.9648990024576407, 2.9648990024576407, 2.9648990024576407,
    ],
    ("SNIP-RH", "zeta"): [
        16.14109732453523, 24.01898356454772, 28.245382612010093,
        30.952179636236387, 28.46801880081148, 29.072048147766377,
    ],
    ("SNIP-RH", "phi"): [
        41.87944066153462, 66.63815206589763, 85.88697260209042,
        86.4, 86.4, 86.4,
    ],
    ("SNIP-RH", "rho"): [
        2.5945844832913494, 2.7743951731686205, 3.0407438193303427,
        2.7914027708358753, 3.0349846473171915, 2.971926833666797,
    ],
}


PHI_MAX = DAY / 1000


def paper_default_sweep(executor=None, **overrides):
    """The paper scenario's Φmax = Tepoch/1000 sweep, 14 epochs, seed 0."""
    spec = StudySpec(
        zeta_targets=PAPER_ZETA_TARGETS,
        phi_maxes=(PHI_MAX,),
        epochs=14,
        seed=0,
        **overrides,
    )
    return run_study(spec, executor=executor).grid().budget(PHI_MAX)


def assert_matches_golden(sweep):
    for (mechanism, metric), golden in GOLDEN.items():
        observed = sweep.series(metric)[mechanism]
        assert observed == pytest.approx(golden, rel=1e-12, abs=1e-12), (
            f"{mechanism} {metric} drifted from the pinned seed-0 series"
        )


def test_serial_sweep_matches_golden():
    assert_matches_golden(paper_default_sweep())


def test_vector_sweep_matches_golden_exactly():
    sweep = paper_default_sweep(engines=("vector",))
    for (mechanism, metric), golden in GOLDEN.items():
        assert sweep.series(metric)[mechanism] == golden, (
            f"vector {mechanism} {metric} differs from the pinned seed-0 series"
        )


def test_parallel_sweep_matches_golden():
    assert_matches_golden(paper_default_sweep(ParallelExecutor(jobs=2)))
