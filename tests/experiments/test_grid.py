"""Full-grid determinism: the Φmax axis joins the sharding contract.

``run_study`` flattens mechanism × ζtarget × Φmax × replicate into one
shard list.  The contract under test: the assembled grid is
byte-identical for jobs=1, jobs=4, and an adversarially shuffled
execution order — for *every* Φmax budget — and each budget's slice is
byte-identical to a study of that budget alone.
Streaming progress must observe every cell exactly once without
perturbing the result.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import ParallelExecutor, SerialExecutor, Transport
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.sweep import GRID_EXPORT_COLUMNS
from repro.units import DAY

TARGETS = (16.0, 48.0)
PHI_MAXES = (DAY / 1000.0, DAY / 100.0)
METRICS = ("zeta", "phi", "rho")


class ShuffledTransport(Transport):
    """Executes shards in a deterministic but scrambled order, streaming.

    Any hidden cross-cell or cross-budget state would surface as a
    series mismatch against the serial reference.
    """

    def __init__(self, shuffle_seed: int = 4321) -> None:
        self.shuffle_seed = shuffle_seed

    def imap(self, fn, items):
        """Yield (index, result) pairs in the scrambled order."""
        items = list(items)
        order = list(range(len(items)))
        random.Random(self.shuffle_seed).shuffle(order)
        for index in order:
            yield index, fn(items[index])


def grid_spec(**overrides) -> StudySpec:
    """The two-budget grid every test here runs (epochs 2, seed 9)."""
    kwargs = dict(zeta_targets=TARGETS, phi_maxes=PHI_MAXES, epochs=2, seed=9)
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def run_grid(executor=None, progress=None, **overrides):
    """Run :func:`grid_spec` and return its (single-engine) grid."""
    study = run_study(
        grid_spec(**overrides), executor=executor, progress=progress
    )
    return study.grid()


@pytest.fixture(scope="module")
def reference_study():
    """The serial (jobs=1) replicated study behind :func:`reference_grid`."""
    return run_study(grid_spec(replicates=2), executor=SerialExecutor())


@pytest.fixture(scope="module")
def reference_grid(reference_study):
    """The serial (jobs=1) replicated grid every variant must match."""
    return reference_study.grid()


def assert_identical_grids(grid, reference):
    for phi_max in PHI_MAXES:
        sweep = grid.budget(phi_max)
        expected = reference.budget(phi_max)
        for metric in METRICS:
            assert sweep.series(metric) == expected.series(metric)
            assert sweep.predicted_series(metric) == expected.predicted_series(
                metric
            )


class TestGridDeterminism:
    def test_four_workers_match_serial(self, reference_grid):
        pool = ParallelExecutor(jobs=4)
        grid = run_grid(pool, replicates=2)
        assert pool.last_map_parallel, "grid silently fell back to serial"
        assert_identical_grids(grid, reference_grid)

    def test_shuffled_execution_matches_serial(self, reference_grid):
        grid = run_grid(ShuffledTransport(), replicates=2)
        assert_identical_grids(grid, reference_grid)

    def test_budget_slices_match_standalone_sweeps(self, reference_grid):
        # The Φmax axis must not perturb per-budget seeding: each slice
        # equals a single-budget study bit-for-bit.
        for phi_max in PHI_MAXES:
            standalone = run_grid(phi_maxes=(phi_max,), replicates=2).budget(
                phi_max
            )
            sliced = reference_grid.budget(phi_max)
            for metric in METRICS:
                assert sliced.series(metric) == standalone.series(metric)

    def test_budgets_actually_differ(self, reference_grid):
        # Sanity: the grid really swept the Φmax axis (the loose budget
        # lets SNIP-AT probe more than the tight one).
        tight = reference_grid.budget(PHI_MAXES[0]).series("phi")["SNIP-AT"]
        loose = reference_grid.budget(PHI_MAXES[1]).series("phi")["SNIP-AT"]
        assert max(loose) > max(tight)


class TestGridStreaming:
    def test_progress_sees_every_cell_once(self, reference_grid):
        seen = []

        def observe(spec, result, completed, total):
            seen.append((spec, result, completed, total))

        grid = run_grid(SerialExecutor(), observe, replicates=2)
        total = len(PHI_MAXES) * len(TARGETS) * 3 * 2
        assert len(seen) == total
        assert [entry[2] for entry in seen] == list(range(1, total + 1))
        assert all(entry[3] == total for entry in seen)
        observed_budgets = {entry[0].scenario.phi_max for entry in seen}
        assert observed_budgets == set(PHI_MAXES)
        assert_identical_grids(grid, reference_grid)

    def test_progress_streams_from_pool(self):
        completed_counts = []

        def observe(spec, result, completed, total):
            completed_counts.append(completed)

        pool = ParallelExecutor(jobs=2)
        run_grid(pool, observe, zeta_targets=(16.0,))
        assert pool.last_map_parallel
        assert completed_counts == list(range(1, len(PHI_MAXES) * 3 + 1))


class TestGridResultShape:
    def test_budget_order_and_len(self, reference_grid):
        assert len(reference_grid) == 2
        assert [phi for phi, _sweep in reference_grid] == list(PHI_MAXES)
        assert reference_grid.n_replicates == 2

    def test_series_keyed_by_budget(self, reference_grid):
        nested = reference_grid.series("zeta")
        assert set(nested) == set(PHI_MAXES)
        assert set(nested[PHI_MAXES[0]]) == {"SNIP-AT", "SNIP-OPT", "SNIP-RH"}

    def test_unknown_budget_rejected(self, reference_grid):
        with pytest.raises(ConfigurationError):
            reference_grid.budget(123.456)

    def test_empty_phi_maxes_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_spec(phi_maxes=())

    def test_duplicate_phi_maxes_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_spec(phi_maxes=(DAY / 100, DAY / 100))


class TestGridSerialization:
    """GridResult.to_dict() and the study CSV replace hand-rolled tables."""

    def test_json_document_shape(self, reference_grid):
        document = json.loads(json.dumps(reference_grid.to_dict()))
        assert document["engine"] == "fast"
        assert document["phi_maxes"] == list(PHI_MAXES)
        assert document["zeta_targets"] == list(TARGETS)
        assert document["n_replicates"] == 2
        assert len(document["cells"]) == len(PHI_MAXES) * len(TARGETS) * 3
        for cell in document["cells"]:
            for column in GRID_EXPORT_COLUMNS:
                assert column in cell

    def test_json_cells_match_series(self, reference_grid):
        document = json.loads(json.dumps(reference_grid.to_dict()))
        for cell in document["cells"]:
            sweep = reference_grid.budget(cell["phi_max"])
            column = sweep.points[cell["mechanism"]]
            point = next(
                p for p in column if p.zeta_target == cell["zeta_target"]
            )
            assert cell["zeta"] == pytest.approx(point.zeta)
            assert cell["phi"] == pytest.approx(point.phi)

    def test_json_is_strict_for_single_replicate(self):
        # 1 replicate => infinite CI half-widths, which strict JSON
        # cannot carry; they must serialize as null, not Infinity.
        grid = run_grid(zeta_targets=(16.0,), phi_maxes=(DAY / 100.0,))
        document = json.loads(json.dumps(grid.to_dict(), allow_nan=False))
        cell = document["cells"][0]
        assert cell["zeta_low"] is None and cell["zeta_high"] is None

    def test_csv_has_header_and_one_row_per_cell(self, reference_study):
        lines = reference_study.to_csv().strip().splitlines()
        assert lines[0] == ",".join(GRID_EXPORT_COLUMNS)
        assert len(lines) == 1 + len(PHI_MAXES) * len(TARGETS) * 3
