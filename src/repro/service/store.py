"""The persistent study store: content-addressed, atomic, crash-safe.

One directory holds everything a study server knows::

    store/
    ├── journal.jsonl              append-only state-transition log
    └── studies/
        └── <id>/                  id = sha256(spec.to_json())[:16]
            ├── spec.json          the submitted spec, canonical bytes
            ├── state.json         current StudyRecord (atomic rewrite)
            ├── result.json        StudyResult document (written on done)
            └── result.csv         additionally, when outputs.out is .csv

Studies are **content-addressed**: the id is a truncated SHA-256 of the
spec's canonical JSON, so resubmitting an identical spec returns the
existing study (and, once finished, its cached result) instead of
re-running it — the store-level half of the ROADMAP's cell-cache
direction.  A failed or cancelled study resubmitted with the same bytes
is re-queued under the same id.

Crash safety is layered:

* every file is published whole via temp-file-plus-rename (the idiom
  the file-queue transport established), so a reader can never observe
  a torn spec, state, or result;
* every state transition appends one line to ``journal.jsonl`` *before*
  the ``state.json`` snapshot is rewritten, so :meth:`StudyStore.recover`
  can reconcile the crash window between the two writes: a study whose
  snapshot says ``running`` but whose journal (plus an existing
  ``result.json``) says ``done`` is promoted, any other ``running``
  study is marked failed as interrupted, and ``queued`` studies are
  handed back for FIFO re-execution.

The guarantee covers a *process* crash (a kill, an exception, the OOM
killer), not a *machine* crash.  Only the journal is fsynced:
:func:`~repro.fsio.atomic_write` does not fsync the temp file before
:func:`os.replace`, so after a power loss or a kernel panic a renamed
spec, state or result file may be empty or missing even though the
journal line written after it reached disk.

The store is single-server, multi-thread: one :class:`StudyStore`
instance serializes mutations behind a lock and is shared by the HTTP
handler threads and the scheduler thread.  (Two server *processes* on
one store directory are not supported — the journal has one writer.)
That single writer is also why the per-state study counts behind
``/healthz`` live in memory: they are scanned from the ``state.json``
files once, when the store opens, and updated with every snapshot
write after that, so a health probe reads no study file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..experiments.spec import StudyDocument, StudyResult, StudySpec
from ..fsio import atomic_write

__all__ = [
    "STUDY_STATES",
    "TERMINAL_STATES",
    "StudyRecord",
    "StudyStore",
    "study_id_for",
]

#: Every state a study moves through, lifecycle order.
STUDY_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a study never leaves (except via content-addressed resubmit).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Hex digits of the spec digest used as the study id.
_ID_LENGTH = 16


def study_id_for(spec: StudySpec) -> str:
    """The content-addressed study id: sha256 of the canonical spec JSON.

    Identical specs — byte-identical :meth:`StudySpec.to_json` output —
    share one id, so submission is idempotent and a finished study's
    artifact doubles as a cache entry for its spec.
    """
    digest = hashlib.sha256(spec.to_json().encode("utf-8"))
    return digest.hexdigest()[:_ID_LENGTH]


@dataclass
class StudyRecord:
    """One study's queryable state (the ``state.json`` snapshot)."""

    study_id: str
    state: str
    name: str
    total_runs: int
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The record as a JSON-clean dict (state file and API form)."""
        return {
            "id": self.study_id,
            "state": self.state,
            "name": self.name,
            "total_runs": self.total_runs,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StudyRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            study_id=data["id"],
            state=data["state"],
            name=data.get("name", ""),
            total_runs=int(data.get("total_runs", 0)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error"),
        )

    @property
    def is_terminal(self) -> bool:
        """True once the study can no longer change state."""
        return self.state in TERMINAL_STATES


class StudyStore:
    """The persistent half of the study service (layout in module docs)."""

    def __init__(self, root: str) -> None:
        """Open (creating if needed) the store rooted at *root*."""
        self.root = os.path.abspath(root)
        self.studies_dir = os.path.join(self.root, "studies")
        self.journal_path = os.path.join(self.root, "journal.jsonl")
        os.makedirs(self.studies_dir, exist_ok=True)
        self._lock = threading.RLock()
        # Studies per state: scanned once here, then kept current by
        # _write_state.
        self._counts = Counter(record.state for record in self.list())

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def study_dir(self, study_id: str) -> str:
        """The directory holding one study's files."""
        return os.path.join(self.studies_dir, study_id)

    def spec_path(self, study_id: str) -> str:
        """Where the submitted spec's canonical JSON lives."""
        return os.path.join(self.study_dir(study_id), "spec.json")

    def state_path(self, study_id: str) -> str:
        """Where the study's state snapshot lives."""
        return os.path.join(self.study_dir(study_id), "state.json")

    def result_path(self, study_id: str, *, fmt: str = "json") -> str:
        """Where the study's result artifact lives (``json`` or ``csv``)."""
        return os.path.join(self.study_dir(study_id), f"result.{fmt}")

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def _journal(self, study_id: str, event: str, **extra: Any) -> None:
        """Append one transition line (flushed + fsynced) to the journal."""
        record = {"at": time.time(), "study": study_id, "event": event}
        record.update(extra)
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _journal_tail_states(self) -> Dict[str, str]:
        """Last journalled event per study id (corrupt lines skipped)."""
        tail: Dict[str, str] = {}
        try:
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn final line from a crash mid-append
                    study = record.get("study")
                    event = record.get("event")
                    if isinstance(study, str) and isinstance(event, str):
                        tail[study] = event
        except FileNotFoundError:
            pass
        return tail

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: StudySpec) -> Tuple[StudyRecord, bool]:
        """Persist *spec* and queue it; content-addressed and idempotent.

        Returns ``(record, queued)``: *queued* is True when the study
        entered (or re-entered) the queue — a brand-new spec, or a
        resubmission of a failed/cancelled one — and False when an
        identical spec is already queued, running, or done (the
        existing record is returned so the caller can serve the cached
        state or result).
        """
        study_id = study_id_for(spec)
        with self._lock:
            existing = self.get(study_id)
            if existing is not None:
                if existing.state in ("failed", "cancelled"):
                    record = StudyRecord(
                        study_id=study_id,
                        state="queued",
                        name=spec.name,
                        total_runs=spec.total_runs,
                        submitted_at=time.time(),
                    )
                    self._journal(study_id, "resubmitted")
                    self._write_state(record, was=existing.state)
                    return record, True
                return existing, False
            os.makedirs(self.study_dir(study_id), exist_ok=True)
            atomic_write(self.spec_path(study_id), spec.to_json().encode("utf-8"))
            record = StudyRecord(
                study_id=study_id,
                state="queued",
                name=spec.name,
                total_runs=spec.total_runs,
                submitted_at=time.time(),
            )
            self._journal(study_id, "submitted", name=spec.name)
            self._write_state(record, was=None)
            return record, True

    # ------------------------------------------------------------------
    # transitions (journal first, snapshot second — see recover())
    # ------------------------------------------------------------------
    def mark_running(self, study_id: str) -> StudyRecord:
        """queued → running."""
        return self._transition(study_id, "running", started_at=time.time())

    def mark_done(
        self, study_id: str, result: StudyResult, spec: StudySpec
    ) -> StudyRecord:
        """running → done; the result artifact is persisted *first*.

        Write order — result, journal, snapshot — means a journalled
        ``done`` implies the artifact exists, which is exactly the
        invariant :meth:`recover` leans on for the crash window.  *spec*
        is the study's spec (it says whether a CSV is written too).
        """
        with self._lock:
            text = result.to_json()
            atomic_write(self.result_path(study_id), text.encode("utf-8"))
            if spec.out and spec.out.endswith(".csv"):
                atomic_write(
                    self.result_path(study_id, fmt="csv"),
                    result.to_csv().encode("utf-8"),
                )
            return self._transition(study_id, "done", finished_at=time.time())

    def mark_failed(self, study_id: str, error: str) -> StudyRecord:
        """queued/running → failed, recording the error text."""
        return self._transition(
            study_id, "failed", finished_at=time.time(), error=error
        )

    def mark_cancelled(self, study_id: str) -> StudyRecord:
        """queued/running → cancelled."""
        return self._transition(
            study_id, "cancelled", finished_at=time.time()
        )

    def _transition(self, study_id: str, state: str, **fields: Any) -> StudyRecord:
        with self._lock:
            record = self.get(study_id)
            if record is None:
                raise ConfigurationError(f"unknown study {study_id!r}")
            self._journal(
                study_id, state,
                **({"error": fields["error"]} if "error" in fields else {}),
            )
            was, record.state = record.state, state
            for key, value in fields.items():
                setattr(record, key, value)
            self._write_state(record, was=was)
            return record

    def _write_state(self, record: StudyRecord, *, was: Optional[str]) -> None:
        """Snapshot *record*, which was in state *was* (None: new study)."""
        atomic_write(
            self.state_path(record.study_id),
            (json.dumps(record.to_dict(), indent=2) + "\n").encode("utf-8"),
        )
        if was is not None:
            self._counts[was] -= 1
        self._counts[record.state] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, study_id: str) -> Optional[StudyRecord]:
        """The record for *study_id*, or None when unknown."""
        try:
            with open(self.state_path(study_id), "r", encoding="utf-8") as handle:
                return StudyRecord.from_dict(json.load(handle))
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def list(self) -> List[StudyRecord]:
        """Every stored study, submission order (oldest first)."""
        records = []
        try:
            names = sorted(os.listdir(self.studies_dir))
        except FileNotFoundError:
            return []
        for name in names:
            record = self.get(name)
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: (record.submitted_at, record.study_id))
        return records

    def load_spec(self, study_id: str) -> StudySpec:
        """Re-load the submitted spec (strictly validated)."""
        return StudySpec.load(self.spec_path(study_id))

    def result_text(self, study_id: str, *, fmt: str = "json") -> str:
        """The exact persisted artifact bytes (for byte-stable serving)."""
        with open(
            self.result_path(study_id, fmt=fmt), "r", encoding="utf-8"
        ) as handle:
            return handle.read()

    def load_result(self, study_id: str) -> StudyDocument:
        """The finished study's re-loadable :class:`StudyDocument`."""
        return StudyDocument.load(self.result_path(study_id))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> Tuple[List[str], List[str]]:
        """Reconcile on-disk state after a restart.

        Returns ``(requeued, interrupted)``: study ids still queued (in
        submission order, for the scheduler to re-enqueue FIFO) and
        study ids that were running when the previous server died (now
        marked failed).  Finished studies are untouched — their records
        and artifacts re-list exactly as before the restart.  The one
        crash window — journal says ``done``, snapshot still says
        ``running`` — is healed by promoting the snapshot, since the
        write order of :meth:`mark_done` guarantees the artifact is
        already on disk.
        """
        with self._lock:
            journal_tail = self._journal_tail_states()
            requeued: List[str] = []
            interrupted: List[str] = []
            for record in self.list():
                if record.state == "queued":
                    requeued.append(record.study_id)
                elif record.state == "running":
                    if journal_tail.get(record.study_id) == "done" and (
                        os.path.exists(self.result_path(record.study_id))
                    ):
                        record.state = "done"
                        record.finished_at = time.time()
                        self._write_state(record, was="running")
                    else:
                        self.mark_failed(
                            record.study_id,
                            "interrupted: the server stopped while this "
                            "study was running",
                        )
                        interrupted.append(record.study_id)
            return requeued, interrupted

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Study counts by state (the ``/healthz`` summary).

        Kept in memory: the store scans ``state.json`` files once, when
        it opens, so a health probe costs nothing per stored study.
        """
        with self._lock:
            return {state: self._counts[state] for state in STUDY_STATES}
