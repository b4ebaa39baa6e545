"""Cache-key derivation: canonical, versioned, and replicate-blind.

The content address (:mod:`repro.cache.keys`) must be byte-stable for
equal specs, change when anything outcome-relevant changes (scenario,
mechanism, engine, schema version), and deliberately ignore pure
bookkeeping (``replicate`` — the seed it names is already folded into
``scenario.seed`` by spec expansion).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import keys as cache_keys
from repro.cache.keys import CACHE_SCHEMA_VERSION, cache_key, cell_fingerprint
from repro.experiments.runner import RunSpec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.scenarios import ScenarioRef, materialize_scenario
from repro.units import DAY


def make_spec(**overrides) -> RunSpec:
    """A small paper-scenario RunSpec cell."""
    scenario = paper_roadside_scenario(
        phi_max_divisor=1000,
        zeta_target=overrides.pop("zeta_target", 16.0),
        epochs=overrides.pop("epochs", 1),
        seed=overrides.pop("seed", 1),
    )
    kwargs = dict(mechanism="SNIP-RH", scenario=scenario, engine="fast")
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestKeyStability:
    def test_equal_specs_share_a_key(self):
        assert cache_key(make_spec()) == cache_key(make_spec())

    def test_key_is_a_sha256_hex_digest(self):
        key = cache_key(make_spec())
        assert isinstance(key, str)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_scenario_change_changes_key(self):
        assert cache_key(make_spec(seed=1)) != cache_key(make_spec(seed=2))
        assert cache_key(make_spec(zeta_target=16.0)) != cache_key(
            make_spec(zeta_target=24.0)
        )
        assert cache_key(make_spec(epochs=1)) != cache_key(
            make_spec(epochs=2)
        )

    def test_mechanism_and_engine_change_key(self):
        base = cache_key(make_spec())
        assert cache_key(make_spec(mechanism="SNIP-AT")) != base
        assert cache_key(make_spec(engine="vector")) != base

    def test_infinite_floats_survive_canonicalization(self):
        # SlotProfile.mean_intervals carries float('inf') for empty
        # slots; strict JSON cannot, so floats travel as repr strings.
        fingerprint = cell_fingerprint(make_spec())
        assert fingerprint is not None
        assert cache_key(make_spec()) is not None


class TestReplicateExclusion:
    def test_replicate_index_does_not_change_key(self):
        # `replicate` is bookkeeping: the replicate's seed is already
        # folded into scenario.seed by spec expansion, so two cells
        # differing only in the index are the same computation.
        assert cache_key(make_spec(replicate=0)) == cache_key(
            make_spec(replicate=7)
        )

    def test_fingerprint_omits_replicate(self):
        fingerprint = cell_fingerprint(make_spec(replicate=3))
        assert "replicate" not in fingerprint


class TestSchemaVersion:
    def test_fingerprint_embeds_schema_version(self):
        assert cell_fingerprint(make_spec())["schema"] == CACHE_SCHEMA_VERSION

    def test_schema_bump_changes_every_key(self, monkeypatch):
        before = cache_key(make_spec())
        monkeypatch.setattr(
            cache_keys, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cache_key(make_spec()) != before


class TestPinnedKeys:
    """The schema-v3 addresses of two paper cells: a key moves only when
    the schema version does, never by accident of encoding."""

    def test_materialized_paper_roadside_key_is_unchanged(self):
        assert cache_key(make_spec()) == (
            "0d032ba40c0f0e65d7dad0e01f0ec07dd012fee803340edcfbb7a1a1f0984d41"
        )

    def test_named_paper_roadside_key_is_unchanged(self):
        ref = ScenarioRef("paper-roadside")
        scenario = dataclasses.replace(
            materialize_scenario(ref, epochs=1, seed=1),
            zeta_target=16.0,
            phi_max=86.4,
        )
        spec = RunSpec(
            mechanism="SNIP-RH", scenario=scenario, engine="vector", scenario_ref=ref
        )
        assert cache_key(spec) == (
            "20dd32e8cafc630c037a565a671162c19fbba4dccdc6e2ca93e74342d3b672f8"
        )


def write_trace(path, period):
    """A CSV trace with one 6 s contact every *period* seconds of a day."""
    rows = "".join(f"{start},{start + 6}\n" for start in range(30, int(DAY), period))
    path.write_text("start,end\n" + rows)


class TestTraceFileKeys:
    """The key of a trace-driven cell follows the file's bytes, not just
    its path: an edited file must not replay the old file's outcome."""

    def materialized_spec(self, path):
        scenario = materialize_scenario(
            ScenarioRef("trace-driven", {"path": str(path)}), epochs=1, seed=1
        )
        return RunSpec(mechanism="SNIP-RH", scenario=scenario, engine="vector")

    def named_spec(self, path):
        ref = ScenarioRef("trace-driven", {"path": str(path)})
        return dataclasses.replace(self.materialized_spec(path), scenario_ref=ref)

    @pytest.mark.parametrize("build", ["materialized_spec", "named_spec"])
    def test_editing_the_file_changes_the_key(self, tmp_path, build):
        path = tmp_path / "contacts.csv"
        write_trace(path, 900)
        spec = getattr(self, build)(path)
        before = cache_key(spec)
        assert cell_fingerprint(spec)["trace_sha256"]
        assert cache_key(spec) == before
        write_trace(path, 600)
        assert cache_key(spec) != before

    def test_unreadable_file_is_not_cacheable(self, tmp_path):
        spec = self.materialized_spec(tmp_path / "missing.csv")
        assert cache_key(spec) is None

    def study(self, path, cache_dir):
        return StudySpec(
            name="trace-cache",
            zeta_targets=(16.0,),
            phi_maxes=(DAY / 100.0,),
            epochs=1,
            seed=1,
            mechanisms=("SNIP-RH",),
            engines=("vector",),
            scenarios=({"name": "trace-driven", "options": {"path": str(path)}},),
            cache=str(cache_dir),
            with_predictions=False,
        )

    def test_warm_rerun_recomputes_an_edited_trace(self, tmp_path):
        path = tmp_path / "contacts.csv"
        spec = self.study(path, tmp_path / "cells")
        write_trace(path, 900)
        cold = run_study(spec)
        assert (cold.cells_computed, cold.cells_cached) == (1, 0)
        write_trace(path, 7200)
        edited = run_study(spec)
        assert (edited.cells_computed, edited.cells_cached) == (1, 0)
        cold_cell, edited_cell = (
            study.to_dict()["grids"]["vector"]["cells"][0] for study in (cold, edited)
        )
        assert edited_cell["zeta"] != cold_cell["zeta"]

    def test_warm_rerun_of_an_unchanged_trace_computes_nothing(self, tmp_path):
        path = tmp_path / "contacts.csv"
        spec = self.study(path, tmp_path / "cells")
        write_trace(path, 900)
        cold = run_study(spec)
        warm = run_study(spec)
        assert (warm.cells_computed, warm.cells_cached) == (0, 1)
        assert warm.to_dict()["grids"] == cold.to_dict()["grids"]
