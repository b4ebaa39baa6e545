"""The single-writer scheduler: queued studies run FIFO, progress streams.

One daemon thread owns every state transition past ``queued``: it pops
study ids in submission order, resolves the execution transport (the
server's pinned ``--transport`` when given, otherwise each spec's own
``execution`` section), and drives
:func:`~repro.experiments.spec.run_study` with a progress callback that
fans per-cell completions into a per-study :class:`EventLog` — the
exact ``Transport.imap`` streaming contract the CLI's progress lines
ride, re-published as server-sent events.

Because exactly one thread executes studies, the store sees a single
writer for run state (HTTP handler threads only submit and cancel), and
a server fronting a ``file-queue`` directory funnels every study
through one coordinator sharing one worker fleet — concurrent
submitters queue behind each other instead of racing for the workers.

The scheduler keeps the inner transport it built from one study to the
next while the execution settings stay the same, so a ``pool`` server
forks its workers at the first pool study and keeps them until
:meth:`StudyScheduler.close` (server shutdown).  Workers see the
registries as they were at that fork: register plugins before serving.

Cancellation is cooperative and per-cell: ``DELETE /studies/{id}``
flags the study, and the progress callback raises
:class:`StudyCancelled` at the next completed cell; a queued study is
simply marked cancelled before it ever starts.

Event logs are kept in memory only while they can still be wanted: a
study's log lives while it is queued or running, and for the
:data:`FINISHED_LOG_LIMIT` most recently finished studies after that,
so a late subscriber still replays every cell.  An older log is
dropped; its study then streams like one that finished before a
restart — a pre-closed log holding only the terminal event.  A stream
already open on a dropped log keeps it and ends normally.  The server's
memory therefore does not grow with the number of studies it has served.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from ..cache.store import validate_cache_options
from ..experiments.parallel import Transport
from ..experiments.spec import StudySpec, run_study
from ..experiments.sweep import progress_event
from ..experiments.transport import validate_transport
from .store import StudyRecord, StudyStore

__all__ = ["FINISHED_LOG_LIMIT", "EventLog", "StudyCancelled", "StudyScheduler"]

#: How many finished studies keep their full event log in memory (the
#: most recent ones); an older study streams only its terminal event.
FINISHED_LOG_LIMIT = 64


class StudyCancelled(Exception):
    """Raised inside the progress callback to abort a cancelled study."""


class EventLog:
    """An append-only event sequence with blocking subscriber streams.

    The scheduler appends JSON-clean event dicts (``started``, one
    ``cell``/``node`` per completed run, then a terminal
    ``done``/``failed``/``cancelled``) and closes the log; any number
    of subscribers iterate :meth:`stream` concurrently, each replaying
    from the start and then blocking for live events — so an SSE client
    attaching mid-run still sees every cell.
    """

    def __init__(self) -> None:
        """Create an empty, open log."""
        self._events: List[Dict[str, Any]] = []
        self._closed = False
        self._cond = threading.Condition()

    def append(self, event: Dict[str, Any]) -> None:
        """Publish one event to every subscriber."""
        with self._cond:
            self._events.append(dict(event))
            self._cond.notify_all()

    def close(self) -> None:
        """No more events will come; streams drain and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """True once the log has been closed."""
        with self._cond:
            return self._closed

    def snapshot(self) -> List[Dict[str, Any]]:
        """The events so far (a copy)."""
        with self._cond:
            return [dict(event) for event in self._events]

    def stream(
        self, *, heartbeat: Optional[float] = None
    ) -> Iterator[Optional[Dict[str, Any]]]:
        """Yield every event from the beginning, then live until closed.

        When *heartbeat* is set and no event arrives within that many
        seconds, ``None`` is yielded — the SSE layer turns it into a
        keep-alive comment so idle connections are not silently dropped
        by intermediaries.
        """
        index = 0
        while True:
            with self._cond:
                if index < len(self._events):
                    event = dict(self._events[index])
                    index += 1
                elif self._closed:
                    return
                else:
                    self._cond.wait(timeout=heartbeat)
                    if index >= len(self._events) and not self._closed:
                        event = None  # heartbeat gap
                    else:
                        continue
            yield event

    @classmethod
    def closed_with(cls, events: List[Dict[str, Any]]) -> "EventLog":
        """A pre-closed log replaying *events* (restart-synthesized)."""
        log = cls()
        for event in events:
            log.append(event)
        log.close()
        return log


class StudyScheduler:
    """The single thread that turns queued studies into results.

    Args:
        store: the persistent :class:`~repro.service.store.StudyStore`.
        transport: optional transport name pinned by the
            server (``repro serve --transport NAME``).  When set, every
            study executes on this transport — built with the study's
            own ``jobs``/``batch_size`` — regardless of its spec's
            ``execution.transport``; the *stored spec and artifact are
            not rewritten*, so a fetched result stays byte-identical to
            a direct run of the submitted spec.  When None, each spec's
            execution section decides, exactly as ``repro-snip run``
            would.
        transport_options: per-transport options for the pinned
            transport (a file queue's ``queue_dir``/``workers``, ...),
            keys and values validated at construction.
        cache: optional content-addressed cell-cache directory pinned
            by the server (``repro serve --cache DIR``).  When set,
            every study's transport is decorated with
            :class:`~repro.cache.transport.CachedTransport` over this
            one shared directory — a near-duplicate resubmission only
            computes the cells that actually changed — overriding any
            ``execution.cache`` in the spec (like a pinned transport,
            the stored spec and artifact are never rewritten).  When
            None, each spec's own ``execution.cache`` decides.
        cache_options: strict cache options for the pinned directory
            (``max_bytes`` / ``max_age_days`` / ``readonly``),
            validated at construction.
    """

    def __init__(
        self,
        store: StudyStore,
        *,
        transport: Optional[str] = None,
        transport_options: Optional[Mapping[str, Any]] = None,
        cache: Optional[str] = None,
        cache_options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Validate the pinned transport/cache and set up the queue."""
        self.store = store
        self.transport = transport
        self.transport_options = dict(transport_options or {})
        if transport is not None:
            validate_transport(
                transport, self.transport_options,
                where="serve --transport-option",
            )
        self.cache = cache
        self.cache_options = validate_cache_options(
            dict(cache_options or {}), where="serve --cache-option"
        )
        self._queue: deque = deque()
        # The spec parsed at submission, per queued id: a study runs
        # from it without re-reading spec.json.
        self._specs: Dict[str, StudySpec] = {}
        self._cond = threading.Condition()
        self._stop = False
        self._active: Optional[str] = None
        self._cancel_requested: set = set()
        # Every queued or running study's log, plus the finished ones
        # named in _finished (finish order, at most FINISHED_LOG_LIMIT).
        self._events: Dict[str, EventLog] = {}
        self._finished: deque = deque()
        # The one live inner transport and the execution settings it was
        # built from: (transport name, jobs, batch_size, options).
        self._inner: Optional[Transport] = None
        self._inner_key: Optional[tuple] = None
        self._thread = threading.Thread(
            target=self._loop, name="study-scheduler", daemon=True
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> List[str]:
        """Recover the store, re-enqueue still-queued studies, start.

        Returns the ids of interrupted studies the recovery marked
        failed (for the server's startup log line).
        """
        requeued, interrupted = self.store.recover()
        for study_id in requeued:
            self.submit(study_id, self.store.load_spec(study_id))
        self._thread.start()
        return interrupted

    def close(self, *, timeout: float = 30.0) -> None:
        """Stop the thread; a running study aborts and is marked cancelled.

        Once the thread has joined, the live transport is closed, so its
        pool workers exit with the scheduler; a thread still running a
        study after *timeout* keeps its transport.  (A *hard* kill — no
        close — leaves the study ``running`` on disk; the next start's
        :meth:`~repro.service.store.StudyStore.recover` marks it failed
        as interrupted.)
        """
        with self._cond:
            self._stop = True
            if self._active is not None:
                self._cancel_requested.add(self._active)
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
        if not self._thread.is_alive():
            # Never under a study still running on the thread: its pool
            # is left to process exit (idle workers follow their parent).
            self._close_inner()

    def is_alive(self) -> bool:
        """Whether the scheduler thread is running (``/healthz``)."""
        return self._thread.is_alive()

    # ------------------------------------------------------------------
    # submission side (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, study_id: str, spec: StudySpec) -> None:
        """Enqueue a store-queued study for FIFO execution.

        *spec* is the study's spec as the submitter parsed it (or, for a
        study re-queued by recovery, as the store loaded it); the study
        runs from it without reading its ``spec.json`` back.
        """
        with self._cond:
            log = self._events.get(study_id)
            if log is None or log.closed:  # new or resubmitted: fresh stream
                self._events[study_id] = EventLog()
                if log is not None:
                    self._finished.remove(study_id)
            self._specs[study_id] = spec
            if study_id not in self._queue:
                self._queue.append(study_id)
            self._cond.notify_all()

    def cancel(self, study_id: str) -> StudyRecord:
        """Cancel a queued or running study; returns the updated record.

        A study waiting in the queue is marked cancelled immediately;
        any other live one (running, or just taken off the queue) is
        flagged and aborts before it starts or at its next completed
        cell (the returned record keeps its state until the scheduler
        observes the flag).  Terminal studies are returned unchanged.
        """
        with self._cond:
            record = self.store.get(study_id)
            if record is None or record.is_terminal:
                return record
            self._cancel_requested.add(study_id)
            if record.state == "queued" and study_id in self._queue:
                self._queue.remove(study_id)
                self._specs.pop(study_id, None)
                record = self._finish(
                    study_id,
                    {"event": "cancelled", "study": study_id},
                    self.store.mark_cancelled,
                )
            return record

    def events(self, study_id: str) -> Optional[EventLog]:
        """The event log for *study_id*, synthesizing terminal ones.

        A study the store holds as queued but that has not reached
        :meth:`submit` yet (the service persists before it enqueues)
        gets an open log now, which :meth:`submit` keeps, so its stream
        waits for the run.  A terminal study without an in-memory log
        (it ran before a restart, or finished more than
        :data:`FINISHED_LOG_LIMIT` studies ago) gets a pre-closed log
        carrying its terminal event, so ``GET /studies/{id}/events``
        always has something coherent to stream.  Unknown studies
        return None.
        """
        with self._cond:
            log = self._events.get(study_id)
            if log is not None:
                return log
            record = self.store.get(study_id)
            if record is None:
                return None
            if not record.is_terminal:
                log = self._events[study_id] = EventLog()
                return log
        event: Dict[str, Any] = {"event": record.state, "study": study_id}
        if record.error:
            event["error"] = record.error
        return EventLog.closed_with([event])

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Studies waiting to run."""
        with self._cond:
            return len(self._queue)

    @property
    def active(self) -> Optional[str]:
        """The id of the study currently executing, if any."""
        with self._cond:
            return self._active

    # ------------------------------------------------------------------
    # the single writer
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                study_id = self._queue.popleft()
                spec = self._specs.pop(study_id)
                self._active = study_id
            try:
                self._run_one(study_id, spec)
            finally:
                with self._cond:
                    self._active = None

    def _run_one(self, study_id: str, spec: StudySpec) -> None:
        record = self.store.get(study_id)
        if record is None or record.state != "queued":
            return
        if study_id in self._cancel_requested:
            self._finish(
                study_id,
                {"event": "cancelled", "study": study_id},
                self.store.mark_cancelled,
            )
            return
        with self._cond:
            log = self._events[study_id]
        self.store.mark_running(study_id)
        log.append({
            "event": "started",
            "study": study_id,
            "name": spec.name,
            "total": spec.total_runs,
        })
        progress = self._progress_callback(study_id, log)
        try:
            executor = self._build_executor(spec)
            result = run_study(spec, executor=executor, progress=progress)
        except StudyCancelled:
            self._finish(
                study_id,
                {"event": "cancelled", "study": study_id},
                self.store.mark_cancelled,
            )
        # lint: allow[broad-except] -- service boundary: one failing (or
        # mis-specified) study must not take down the server; the error
        # is persisted on the study record and reported to its clients
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._finish(
                study_id,
                {"event": "failed", "study": study_id, "error": error},
                lambda study_id: self.store.mark_failed(study_id, error),
            )
        else:
            self._finish(
                study_id,
                {
                    "event": "done",
                    "study": study_id,
                    "total": spec.total_runs,
                },
                lambda study_id: self.store.mark_done(study_id, result, spec),
            )

    def _progress_callback(self, study_id: str, log: EventLog):
        """The per-shard observer bridging ``run_study`` into the log."""

        def progress(shard, result, completed, total) -> None:
            """One completed run: publish it, honouring cancellation."""
            if study_id in self._cancel_requested:
                raise StudyCancelled(study_id)
            event = progress_event(shard, result, completed, total)
            event["study"] = study_id
            log.append(event)

        return progress

    def _build_executor(self, spec: StudySpec) -> Transport:
        """The transport this study runs on (pinned name or spec-derived).

        The server's pinned transport and cache directory (when set)
        replace the spec's own, then the spec builds the transport in
        the two steps of :meth:`~repro.experiments.spec.StudySpec.build_transport`
        (:meth:`~repro.experiments.spec.StudySpec.build_inner_transport`,
        then :meth:`~repro.experiments.spec.StudySpec.wrap_cache`).  The
        replaced spec only builds the transport:
        the stored spec and the artifact stay the submitted one.  One
        shared cache across every submission is what makes
        near-duplicate studies cheap.

        The inner transport outlives the study, so pool workers fork
        once, not per study: the next study resolving to the same
        ``(transport, jobs, batch_size, transport_options)`` reuses it,
        and only the cache step runs per study.  At most one is
        alive — a study resolving differently closes it first, so a
        client varying ``jobs`` cannot pile up pools.
        """
        pinned: Dict[str, Any] = {}
        if self.transport is not None:
            pinned.update(
                transport=self.transport,
                transport_options=self.transport_options,
            )
        if self.cache is not None:
            pinned.update(cache=self.cache, cache_options=self.cache_options)
        effective = dataclasses.replace(spec, **pinned)
        key = (
            effective.resolved_transport,
            effective.jobs,
            effective.batch_size,
            dict(effective.transport_options),
        )
        if key != self._inner_key:
            self._close_inner()
            self._inner = effective.build_inner_transport()
            self._inner_key = key
        return effective.wrap_cache(self._inner)

    def _close_inner(self) -> None:
        """Close the live inner transport, if any (its pool workers exit)."""
        inner, self._inner, self._inner_key = self._inner, None, None
        if inner is not None:
            inner.close()

    def _finish(
        self,
        study_id: str,
        terminal: Dict[str, Any],
        mark: Callable[[str], StudyRecord],
    ) -> StudyRecord:
        """End the study: *mark* it terminal in the store, close its log.

        Both happen as one step under the scheduler lock (taken before
        the store's, the one lock order), so a resubmission — which the
        store accepts only once the study is failed or cancelled —
        always finds the log closed and gets a fresh one.  The cancel
        flag goes too.  The log joins the finished window, and the
        oldest finished log beyond :data:`FINISHED_LOG_LIMIT` is
        dropped.  Returns the store's updated record.
        """
        with self._cond:
            record = mark(study_id)
            log = self._events[study_id]
            log.append(terminal)
            log.close()
            self._cancel_requested.discard(study_id)
            self._finished.append(study_id)
            if len(self._finished) > FINISHED_LOG_LIMIT:
                del self._events[self._finished.popleft()]
            return record
