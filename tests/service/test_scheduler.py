"""Scheduler and EventLog unit tests (no HTTP involved)."""

from __future__ import annotations

import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import run_study
from repro.scenarios import ScenarioRef
from repro.service.scheduler import EventLog, StudyScheduler
from repro.service.store import StudyStore
from service_specs import make_tiny_spec


def fake_cell(replicate: int = 0) -> tuple:
    """A (shard, result) pair shaped like the grid progress callback's."""
    shard = SimpleNamespace(
        mechanism="SNIP-RH",
        engine="fast",
        replicate=replicate,
        scenario=SimpleNamespace(zeta_target=16.0, phi_max=864.0),
        scenario_ref=ScenarioRef("paper-roadside"),
    )
    result = SimpleNamespace(mean_zeta=10.0, mean_phi=5.0, from_cache=False)
    return shard, result


class TestEventLog:
    def test_stream_replays_then_follows_live(self):
        log = EventLog()
        log.append({"event": "started"})
        collected = []
        done = threading.Event()

        def consume() -> None:
            for event in log.stream():
                collected.append(event)
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        log.append({"event": "cell"})
        log.append({"event": "done"})
        log.close()
        assert done.wait(timeout=5)
        assert [event["event"] for event in collected] == [
            "started", "cell", "done",
        ]

    def test_heartbeat_yields_none_on_idle(self):
        log = EventLog()
        stream = log.stream(heartbeat=0.05)
        assert next(stream) is None  # no events yet: a keep-alive gap

    def test_closed_with_replays_and_terminates(self):
        log = EventLog.closed_with([{"event": "done"}])
        assert log.closed
        assert [event["event"] for event in log.stream()] == ["done"]

    def test_snapshot_copies(self):
        log = EventLog()
        log.append({"event": "started"})
        snap = log.snapshot()
        snap[0]["event"] = "mutated"
        assert log.snapshot()[0]["event"] == "started"


class TestSchedulerExecution:
    def test_executes_fifo_and_marks_done(self, tmp_path):
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)
        scheduler.start()
        try:
            ids = []
            for seed in (1, 2):
                spec = make_tiny_spec(seed=seed)
                record, _ = store.submit(spec)
                scheduler.submit(record.study_id, spec)
                ids.append(record.study_id)
            for study_id in ids:
                log = scheduler.events(study_id)
                events = list(log.stream())
                assert events[-1]["event"] == "done"
                assert store.get(study_id).state == "done"
        finally:
            scheduler.close()

    def test_pinned_transport_keeps_artifact_byte_identical(self, tmp_path):
        # The server pins "serial"; the spec asks for a pool.  The
        # stored spec must not be rewritten, and the artifact must
        # match a direct run of the submitted spec exactly.
        spec = make_tiny_spec(jobs=2)
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store, transport="serial")
        scheduler.start()
        try:
            record, _ = store.submit(spec)
            scheduler.submit(record.study_id, spec)
            list(scheduler.events(record.study_id).stream())
            assert store.result_text(record.study_id) == run_study(spec).to_json()
            assert store.load_spec(record.study_id).jobs == 2
        finally:
            scheduler.close()

    def test_new_execution_settings_close_the_previous_pool(self, tmp_path):
        # A client varying jobs must not pile up pools: each study with
        # new settings closes the previous transport before it runs.
        before = set(multiprocessing.active_children())
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)
        scheduler.start()
        workers = []
        try:
            for index, jobs in enumerate((2, 3, 3)):
                spec = make_tiny_spec(
                    name=f"svc-jobs-{index}",
                    zeta_targets=(16.0, 24.0, 32.0),
                    jobs=jobs,
                )
                record, _ = store.submit(spec)
                scheduler.submit(record.study_id, spec)
                events = list(scheduler.events(record.study_id).stream())
                assert events[-1]["event"] == "done"
                live = set(multiprocessing.active_children()) - before
                assert len(live) == jobs
                workers.append(live)
        finally:
            scheduler.close()
        assert not workers[0] & workers[1]  # jobs changed: a new pool
        assert workers[2] == workers[1]  # same settings: the same pool
        assert not set(multiprocessing.active_children()) - before

    def test_unknown_pinned_transport_raises_at_construction(self, tmp_path):
        store = StudyStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            StudyScheduler(store, transport="no-such-transport")

    def test_bad_transport_option_raises_at_construction(self, tmp_path):
        store = StudyStore(str(tmp_path))
        with pytest.raises(ConfigurationError, match="serve --transport-option"):
            StudyScheduler(
                store,
                transport="file-queue",
                transport_options={"bogus_option": 1},
            )


class TestCancellation:
    def test_cancel_queued_study_never_runs(self, tmp_path):
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)  # thread not started
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        scheduler.submit(record.study_id, spec)
        cancelled = scheduler.cancel(record.study_id)
        assert cancelled.state == "cancelled"
        assert scheduler.queue_depth == 0
        events = list(scheduler.events(record.study_id).stream())
        assert events[-1]["event"] == "cancelled"

    def test_cancel_running_study_aborts_at_next_cell(
        self, tmp_path, monkeypatch
    ):
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)

        def fake_run_study(spec, *, executor=None, progress=None, **kwargs):
            shard, result = fake_cell()
            progress(shard, result, 1, 3)
            # The cancel flag is set between cells; the next progress
            # call must raise StudyCancelled.
            scheduler.cancel(study_id)
            progress(shard, result, 2, 3)
            raise AssertionError("progress should have raised")

        monkeypatch.setattr(
            "repro.service.scheduler.run_study", fake_run_study
        )
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        study_id = record.study_id
        scheduler.start()
        try:
            scheduler.submit(study_id, spec)
            events = list(scheduler.events(study_id).stream())
            assert [event["event"] for event in events] == [
                "started", "cell", "cancelled",
            ]
            assert store.get(study_id).state == "cancelled"
        finally:
            scheduler.close()

    def test_close_aborts_active_study(self, tmp_path, monkeypatch):
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)
        started = threading.Event()

        def slow_run_study(spec, *, executor=None, progress=None, **kwargs):
            shard, result = fake_cell()
            for completed in range(1, 1000):
                progress(shard, result, completed, 1000)
                started.set()
                time.sleep(0.01)

        monkeypatch.setattr(
            "repro.service.scheduler.run_study", slow_run_study
        )
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        scheduler.start()
        scheduler.submit(record.study_id, spec)
        assert started.wait(timeout=10)
        scheduler.close()
        assert store.get(record.study_id).state == "cancelled"

    def test_close_keeps_the_transport_of_a_study_still_running(
        self, tmp_path, monkeypatch
    ):
        # A thread that outlives close()'s timeout is still streaming
        # from its transport; closing the pool under it would fail the
        # study instead of letting it end.
        store = StudyStore(str(tmp_path))
        scheduler = StudyScheduler(store)
        started, release = threading.Event(), threading.Event()
        closed = []

        def stuck_run_study(spec, *, executor=None, progress=None, **kwargs):
            executor.close = lambda: closed.append(executor)
            started.set()
            release.wait(timeout=30)
            shard, result = fake_cell()
            progress(shard, result, 1, 1)  # stopping: raises StudyCancelled

        monkeypatch.setattr(
            "repro.service.scheduler.run_study", stuck_run_study
        )
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        scheduler.start()
        scheduler.submit(record.study_id, spec)
        assert started.wait(timeout=10)
        try:
            scheduler.close(timeout=0.2)
            assert scheduler.is_alive()
            assert closed == []
        finally:
            release.set()
            scheduler._thread.join(timeout=10)
        assert store.get(record.study_id).state == "cancelled"


class TestSchedulerCache:
    def run_one(self, scheduler, store, spec) -> list:
        """Submit *spec*, wait for completion, return its event list."""
        record, _ = store.submit(spec)
        scheduler.submit(record.study_id, spec)
        return list(scheduler.events(record.study_id).stream())

    def test_pinned_cache_warms_across_studies(self, tmp_path):
        store = StudyStore(str(tmp_path / "store"))
        scheduler = StudyScheduler(store, cache=str(tmp_path / "cc"))
        scheduler.start()
        try:
            # Distinct names (the store dedupes identical specs) but
            # identical cells: the second study must hit the cache.
            cold = self.run_one(scheduler, store, make_tiny_spec())
            warm = self.run_one(
                scheduler, store, make_tiny_spec(name="svc-tiny-warm")
            )
        finally:
            scheduler.close()
        cold_cells = [e for e in cold if e["event"] == "cell"]
        warm_cells = [e for e in warm if e["event"] == "cell"]
        assert not any(e.get("cached") for e in cold_cells)
        assert warm_cells and all(e["cached"] is True for e in warm_cells)

    def test_cached_artifact_byte_identical_to_direct_run(self, tmp_path):
        spec = make_tiny_spec()
        store = StudyStore(str(tmp_path / "store"))
        scheduler = StudyScheduler(store, cache=str(tmp_path / "cc"))
        scheduler.start()
        try:
            self.run_one(scheduler, store, spec)  # cold
            spec = make_tiny_spec(name="svc-warm")
            record, _ = store.submit(spec)
            scheduler.submit(record.study_id, spec)
            list(scheduler.events(record.study_id).stream())
        finally:
            scheduler.close()
        expected = run_study(make_tiny_spec(name="svc-warm")).to_json()
        assert store.result_text(record.study_id) == expected

    def test_server_cache_wins_over_spec_cache(self, tmp_path):
        # The spec names its own cache directory; the pinned server
        # cache must be the one that fills (the spec's stays untouched),
        # and the stored spec is not rewritten.
        spec_cache = tmp_path / "spec-cc"
        spec = make_tiny_spec(cache=str(spec_cache))
        store = StudyStore(str(tmp_path / "store"))
        scheduler = StudyScheduler(store, cache=str(tmp_path / "server-cc"))
        scheduler.start()
        try:
            record, _ = store.submit(spec)
            scheduler.submit(record.study_id, spec)
            list(scheduler.events(record.study_id).stream())
        finally:
            scheduler.close()
        from repro.cache.store import CellCache

        assert CellCache(str(tmp_path / "server-cc")).keys() != []
        assert not (spec_cache / "cells").exists()
        assert store.load_spec(record.study_id).cache == str(spec_cache)

    def test_spec_cache_honoured_with_pinned_transport(self, tmp_path):
        # Pinning a transport must not strip the spec's own cache.
        spec = make_tiny_spec(cache=str(tmp_path / "cc"))
        store = StudyStore(str(tmp_path / "store"))
        scheduler = StudyScheduler(store, transport="serial")
        scheduler.start()
        try:
            record, _ = store.submit(spec)
            scheduler.submit(record.study_id, spec)
            list(scheduler.events(record.study_id).stream())
        finally:
            scheduler.close()
        from repro.cache.store import CellCache

        assert CellCache(str(tmp_path / "cc")).keys() != []

    def test_bad_cache_option_raises_at_construction(self, tmp_path):
        store = StudyStore(str(tmp_path))
        with pytest.raises(ConfigurationError, match="serve --cache-option"):
            StudyScheduler(
                store,
                cache=str(tmp_path / "cc"),
                cache_options={"bogus": 1},
            )
