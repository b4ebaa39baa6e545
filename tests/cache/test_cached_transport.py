"""CachedTransport: hit/miss partitioning, resume, byte-identity.

The headline invariant (ISSUE acceptance): a warm-cache rerun executes
zero shards and produces an artifact byte-identical to the cold run.
Resumability rides on store-before-yield: every computed cell is on
disk before its progress callback can fire, so cancelling a study
mid-flight loses nothing that finished.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cache.keys import cache_key
from repro.cache.store import CellCache
from repro.cache.transport import CachedTransport, wrap_with_cache
from repro.errors import ConfigurationError
from repro.experiments.parallel import SerialExecutor
from repro.experiments.runner import RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.transport import FileQueueTransport
from repro.experiments.worker import worker_loop
from repro.scenarios import ScenarioRef, materialize_scenario


def make_study(tmp_path, **overrides) -> StudySpec:
    """A small cached study spec (3 mechanisms x 1 replicate per target)."""
    kwargs = dict(
        name="cached-study",
        zeta_targets=(16.0,),
        phi_maxes=(864.0,),
        epochs=1,
        seed=1,
        cache=str(tmp_path / "cellcache"),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def artifact_sans_execution(study) -> str:
    """The study's JSON document with the execution section nulled.

    The execution section records the cache path itself, so it is the
    one legitimate difference between cached and uncached runs of the
    same cells (the CI byte-compare uses the same normalization).
    """
    document = json.loads(study.to_json())
    document["study"]["execution"] = None
    return json.dumps(document, sort_keys=True)


def run_specs(count: int = 2):
    """*count* small, distinct, cacheable RunSpec shards."""
    return [
        RunSpec(
            scenario=paper_roadside_scenario(
                phi_max_divisor=100, zeta_target=16.0 + 8 * index,
                epochs=1, seed=1,
            ),
            mechanism="SNIP-RH",
        )
        for index in range(count)
    ]


class TestWarmRerun:
    def test_warm_rerun_computes_nothing_and_is_byte_identical(self, tmp_path):
        spec = make_study(tmp_path)
        cold = run_study(spec)
        assert cold.cells_computed == spec.total_runs
        assert cold.cells_cached == 0
        warm = run_study(spec)
        assert warm.cells_computed == 0
        assert warm.cells_cached == spec.total_runs
        assert warm.to_json() == cold.to_json()

    def test_cached_artifact_matches_uncached_run(self, tmp_path):
        cached = run_study(make_study(tmp_path))
        run_study(make_study(tmp_path))  # warm
        plain = run_study(make_study(tmp_path, cache=None))
        assert artifact_sans_execution(cached) == artifact_sans_execution(plain)

    def test_one_axis_edit_computes_only_new_cells(self, tmp_path):
        run_study(make_study(tmp_path))  # warm: zeta_target 16 only
        widened = make_study(tmp_path, zeta_targets=(16.0, 24.0))
        study = run_study(widened)
        assert study.cells_cached == 3  # the 16.0 cells
        assert study.cells_computed == 3  # the new 24.0 cells
        # And the widened study is itself now fully warm.
        again = run_study(widened)
        assert again.cells_computed == 0

    def test_multi_engine_study_caches_per_engine(self, tmp_path):
        spec = make_study(
            tmp_path, engines=("fast", "vector"), with_predictions=False
        )
        cold = run_study(spec)
        assert cold.cells_computed == spec.total_runs
        warm = run_study(spec)
        assert warm.cells_cached == spec.total_runs
        assert warm.to_json() == cold.to_json()

    def test_progress_fires_for_cached_cells(self, tmp_path):
        spec = make_study(tmp_path)
        run_study(spec)
        seen = []

        def progress(shard, result, completed, total):
            seen.append((completed, total, result.from_cache))

        run_study(spec, progress=progress)
        assert len(seen) == spec.total_runs
        assert all(cached for _, _, cached in seen)
        assert [completed for completed, _, _ in seen] == list(
            range(1, spec.total_runs + 1)
        )


class TestResume:
    def test_cancelled_study_resumes_from_completed_cells(self, tmp_path):
        spec = make_study(tmp_path, zeta_targets=(16.0, 24.0))  # 6 cells

        class Cancelled(Exception):
            pass

        def cancel_after(count):
            def progress(shard, result, completed, total):
                if completed >= count:
                    raise Cancelled()
            return progress

        with pytest.raises(Cancelled):
            run_study(spec, progress=cancel_after(4))
        # Store-before-yield: all 4 completed cells survived the abort.
        resumed = run_study(spec)
        assert resumed.cells_cached == 4
        assert resumed.cells_computed == 2
        # The resumed artifact matches a never-cancelled cold run.
        plain = run_study(make_study(tmp_path, zeta_targets=(16.0, 24.0),
                                     cache=str(tmp_path / "other")))
        assert artifact_sans_execution(resumed) == artifact_sans_execution(plain)


class TestPartitioning:
    def test_non_study_workloads_pass_through(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        transport = CachedTransport(SerialExecutor(), cache)
        assert transport.map(len, ["ab", "c"]) == [2, 1]
        assert cache.stats()["entries"] == 0

    def test_unreadable_trace_shards_raise_and_never_store(self, tmp_path):
        # The one uncacheable cell kind: a trace file that cannot be
        # read has no content address, so the cell executes and raises
        # its real error every time, and nothing is stored.
        scenario = materialize_scenario(
            ScenarioRef("trace-driven", {"path": str(tmp_path / "missing.csv")}),
            epochs=1,
            seed=1,
        )
        spec = RunSpec(scenario=scenario, mechanism="SNIP-RH", engine="vector")
        cache = CellCache(str(tmp_path / "cc"))
        transport = CachedTransport(SerialExecutor(), cache)
        for _ in range(2):
            with pytest.raises(FileNotFoundError, match="missing.csv"):
                transport.map(execute_run_spec, [spec])
            assert cache.stats()["entries"] == 0

    def test_hits_and_misses_reassemble_in_input_order(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        transport = CachedTransport(SerialExecutor(), cache)
        specs = run_specs(3)
        transport.map(execute_run_spec, [specs[1]])  # warm the middle cell
        results = transport.map(execute_run_spec, specs)
        assert [r.from_cache for r in results] == [False, True, False]
        for spec, result in zip(specs, results):
            fresh = execute_run_spec(spec)
            assert result.metrics.epochs == fresh.metrics.epochs

    def test_forwards_transport_surface(self, tmp_path):
        inner = SerialExecutor()
        transport = wrap_with_cache(inner, str(tmp_path / "cc"))
        assert transport.inner is inner
        assert transport.label is None
        transport.label = "tagged"
        assert inner.label == "tagged"
        assert transport.last_map_parallel is False

    def test_wrap_with_cache_validates_options(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache_options"):
            wrap_with_cache(SerialExecutor(), str(tmp_path / "cc"), {"nope": 1})
        transport = wrap_with_cache(
            SerialExecutor(), str(tmp_path / "cc"), {"readonly": True}
        )
        assert isinstance(transport.inner, SerialExecutor)
        assert transport.cache.readonly is True


class TestFileQueueWarming:
    def test_done_ingestion_warms_cache_from_external_worker(self, tmp_path):
        # The coordinator never executes anything itself
        # (self_process=False, workers=0): every outcome arrives through
        # done/ ingestion from the external worker thread, and must be
        # in the cache even though drain_done deletes the record.
        queue = str(tmp_path / "queue")
        cache_dir = str(tmp_path / "cc")
        stop = threading.Event()
        worker = threading.Thread(
            target=worker_loop,
            args=(queue,),
            kwargs={"poll_interval": 0.01, "stop_event": stop},
            daemon=True,
        )
        worker.start()
        try:
            inner = FileQueueTransport(
                queue_dir=queue, workers=0, self_process=False,
                poll_interval=0.01, batch_size=1,
            )
            transport = wrap_with_cache(inner, cache_dir)
            specs = run_specs(2)
            results = transport.map(execute_run_spec, specs)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not any(result.from_cache for result in results)
        assert inner.outcome_sink is None  # disarmed after the run
        cache = CellCache(cache_dir)
        assert sorted(cache.keys()) == sorted(cache_key(s) for s in specs)
        # A warm serial pass over the same cells computes nothing.
        warm = wrap_with_cache(SerialExecutor(), cache_dir)
        warm_results = warm.map(execute_run_spec, specs)
        assert all(result.from_cache for result in warm_results)
        for a, b in zip(results, warm_results):
            assert a.metrics.epochs == b.metrics.epochs
