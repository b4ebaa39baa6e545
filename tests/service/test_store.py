"""StudyStore: content addressing, transitions, journal, recovery."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import StudyDocument, run_study
from repro.experiments.transport import _TEMP_SUFFIX
from repro.service.store import (
    STUDY_STATES,
    TERMINAL_STATES,
    StudyRecord,
    StudyStore,
    study_id_for,
)

from service_specs import make_tiny_spec


class TestContentAddressing:
    def test_id_is_stable_for_identical_specs(self):
        assert study_id_for(make_tiny_spec()) == study_id_for(make_tiny_spec())

    def test_id_differs_when_spec_differs(self):
        assert study_id_for(make_tiny_spec()) != study_id_for(
            make_tiny_spec(seed=2)
        )

    def test_id_is_short_hex(self):
        study_id = study_id_for(make_tiny_spec())
        assert len(study_id) == 16
        int(study_id, 16)  # parses as hex


class TestSubmission:
    def test_submit_persists_canonical_spec_bytes(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        record, queued = store.submit(spec)
        assert queued is True
        assert record.state == "queued"
        with open(store.spec_path(record.study_id), encoding="utf-8") as fh:
            assert fh.read() == spec.to_json()

    def test_resubmission_is_idempotent(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        first, queued_first = store.submit(spec)
        second, queued_second = store.submit(spec)
        assert queued_first is True and queued_second is False
        assert first.study_id == second.study_id
        assert len(store.list()) == 1

    def test_failed_study_requeues_on_resubmit(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        store.mark_running(record.study_id)
        store.mark_failed(record.study_id, "boom")
        requeued, queued = store.submit(spec)
        assert queued is True
        assert requeued.state == "queued"
        assert requeued.error is None


class TestTransitions:
    def test_lifecycle_to_done_persists_result(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        store.mark_running(record.study_id)
        result = run_study(spec)
        done = store.mark_done(record.study_id, result, spec)
        assert done.state == "done"
        assert done.finished_at is not None
        assert store.result_text(record.study_id) == result.to_json()
        document = store.load_result(record.study_id)
        assert isinstance(document, StudyDocument)
        assert len(document.cells()) == spec.total_runs

    def test_csv_artifact_written_when_spec_asks(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec(out="grid.csv")
        record, _ = store.submit(spec)
        store.mark_running(record.study_id)
        result = run_study(spec)
        store.mark_done(record.study_id, result, spec)
        assert store.result_text(record.study_id, fmt="csv") == result.to_csv()

    def test_transition_on_unknown_study_raises(self, tmp_path):
        store = StudyStore(str(tmp_path))
        with pytest.raises(ConfigurationError, match="unknown study"):
            store.mark_running("feedfeedfeedfeed")

    def test_journal_records_every_transition(self, tmp_path):
        store = StudyStore(str(tmp_path))
        record, _ = store.submit(make_tiny_spec())
        store.mark_running(record.study_id)
        store.mark_failed(record.study_id, "boom")
        with open(store.journal_path, encoding="utf-8") as fh:
            events = [json.loads(line)["event"] for line in fh]
        assert events == ["submitted", "running", "failed"]

    def test_states_constants_are_consistent(self):
        assert set(TERMINAL_STATES) < set(STUDY_STATES)


class TestRecovery:
    def test_queued_studies_are_handed_back_fifo(self, tmp_path):
        store = StudyStore(str(tmp_path))
        first, _ = store.submit(make_tiny_spec(seed=1))
        second, _ = store.submit(make_tiny_spec(seed=2))
        requeued, interrupted = StudyStore(str(tmp_path)).recover()
        assert requeued == [first.study_id, second.study_id]
        assert interrupted == []

    def test_running_study_marked_failed_as_interrupted(self, tmp_path):
        store = StudyStore(str(tmp_path))
        record, _ = store.submit(make_tiny_spec())
        store.mark_running(record.study_id)
        restarted = StudyStore(str(tmp_path))
        requeued, interrupted = restarted.recover()
        assert requeued == []
        assert interrupted == [record.study_id]
        failed = restarted.get(record.study_id)
        assert failed.state == "failed"
        assert "interrupted" in failed.error

    def test_done_studies_survive_restart_untouched(self, tmp_path):
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        store.mark_running(record.study_id)
        result = run_study(spec)
        store.mark_done(record.study_id, result, spec)
        restarted = StudyStore(str(tmp_path))
        assert restarted.recover() == ([], [])
        assert restarted.get(record.study_id).state == "done"
        assert restarted.result_text(record.study_id) == result.to_json()

    def test_crash_window_between_journal_and_snapshot_promotes(self, tmp_path):
        # Simulate dying after mark_done journalled "done" (result on
        # disk) but before the state.json snapshot was rewritten.
        store = StudyStore(str(tmp_path))
        spec = make_tiny_spec()
        record, _ = store.submit(spec)
        store.mark_running(record.study_id)
        result = run_study(spec)
        store.mark_done(record.study_id, result, spec)
        running = StudyRecord(
            study_id=record.study_id,
            state="running",
            name=spec.name,
            total_runs=spec.total_runs,
            submitted_at=record.submitted_at,
        )
        store._write_state(running)  # wind the snapshot back
        restarted = StudyStore(str(tmp_path))
        requeued, interrupted = restarted.recover()
        assert interrupted == []
        assert restarted.get(record.study_id).state == "done"

    def test_corrupt_journal_line_is_skipped(self, tmp_path):
        store = StudyStore(str(tmp_path))
        record, _ = store.submit(make_tiny_spec())
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')  # crash mid-append
        requeued, interrupted = StudyStore(str(tmp_path)).recover()
        assert requeued == [record.study_id]

    def test_counts_by_state(self, tmp_path):
        store = StudyStore(str(tmp_path))
        record, _ = store.submit(make_tiny_spec())
        counts = store.counts()
        assert counts["queued"] == 1
        assert sum(counts.values()) == 1
        assert set(counts) == set(STUDY_STATES)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        store = StudyStore(str(tmp_path))
        record, _ = store.submit(make_tiny_spec())
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.endswith(_TEMP_SUFFIX)
        ]
        assert leftovers == []
