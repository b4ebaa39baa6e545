"""Pluggable execution transports: every backend resolves by name.

Execution used to be the one axis of the system that could not be
named: mechanisms, engines, and scenarios all resolve through
:mod:`repro.experiments.registry`, but picking *how* shards run meant
constructing a concrete :class:`~repro.experiments.parallel.SerialExecutor`
or :class:`~repro.experiments.parallel.ParallelExecutor` in code, so a
third backend could not exist without editing ``run_study`` and the CLI
in lockstep.  This module closes that gap:

* :class:`~repro.experiments.parallel.Transport` — the base class
  every backend inherits, re-exported here: one required method,
  ``imap``, yielding ``(shard index, result)`` pairs (shards are pure,
  results are slotted by shard index, never by completion order), so
  the assembled answer is byte-identical no matter which backend ran
  it.
* :data:`~repro.experiments.registry.transport_factories` — the named
  registry.  Built-ins, registered here at import time: ``"serial"``
  (in-process reference semantics), ``"pool"`` (the process-pool
  executor), and ``"file-queue"`` (:class:`FileQueueTransport`, a
  directory-backed work queue that scales past one host).
* :func:`resolve_transport` — name plus picklable config → a live
  transport; :func:`validate_transport` checks a name and an options
  dict strictly, so a bad ``transport_options`` key fails at spec-load
  time, not mid-run on a worker.

A :class:`~repro.experiments.spec.StudySpec` names its transport in the
``execution`` section (``transport`` / ``transport_options``), so::

    repro-snip run --spec study.json --set execution.transport=file-queue

switches the whole study onto another backend with zero code changes.

File-queue layout
=================

One directory, shared over any filesystem both sides can reach (a
local disk, NFS, a bind mount)::

    queue/
    ├── enqueue/  run-<id>-00007.json   shard-range tickets (JSON)
    ├── claim/    run-<id>-00007.json   claimed via atomic rename
    ├── done/     run-<id>-00007.pkl    (index, outcome) result pickles
    └── payload/  run-<id>-00007.pkl    pickled (fn, shards) per ticket

Workers (``python -m repro worker --queue DIR``; see
:mod:`repro.experiments.worker`) claim a ticket by renaming it from
``enqueue/`` into ``claim/`` — rename is atomic on a single filesystem,
so exactly one claimant wins — unpickle the payload, re-resolve
mechanisms and engines by registry name on their own side (exactly like
pool workers: the payload's shards are plain
:class:`~repro.experiments.runner.RunSpec` records), and write the
guarded outcomes into ``done/`` via temp-file-plus-rename.  The
coordinator streams ``done/`` files back into the ordinary ``imap``
contract, *helps out* by claiming tickets itself while it waits (so a
run terminates even with zero workers), and reclaims tickets whose
claimant died.  Because cells are pure, a ticket processed twice — a
slow worker finishing after the coordinator reclaimed it — yields the
identical result and the duplicate is simply ignored.
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import uuid
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError
from ..fsio import atomic_write
from ..units import require_positive
from .parallel import (
    ParallelExecutor,
    SerialExecutor,
    Transport,
    _FallbackTransport,
    _ShardFailure,
    _ShardOutcome,
    _guarded_batch,
)
from .registry import transport_factories

__all__ = [
    "BUILTIN_TRANSPORTS",
    "FileQueueTransport",
    "Transport",
    "release_claimed_ticket",
    "resolve_transport",
    "transport_names",
    "transport_option_names",
    "validate_transport",
]

#: The built-in transport names, cheapest first.
BUILTIN_TRANSPORTS = ("serial", "pool", "file-queue")

#: Config keys every transport factory accepts (fed from a StudySpec's
#: execution section); anything beyond these is a per-transport option.
_COMMON_CONFIG = ("jobs", "batch_size")


@transport_factories.register("serial")
def serial_transport(*, jobs: int = 1, batch_size=1) -> SerialExecutor:
    """The in-process reference backend (ignores jobs and batch size).

    Byte-identical to every other transport by the sharding contract;
    the semantics all of them are tested against.
    """
    return SerialExecutor()


@transport_factories.register("pool")
def pool_transport(
    *, jobs: Optional[int] = None, batch_size="auto"
) -> ParallelExecutor:
    """The process-pool backend (the historical ``--jobs N`` path)."""
    return ParallelExecutor(jobs=jobs, batch_size=batch_size)


def transport_names() -> List[str]:
    """All registered transport names (built-ins register at import)."""
    return transport_factories.names()


def transport_option_names(name: str) -> Optional[Tuple[str, ...]]:
    """The per-transport option keys *name* accepts, from its signature.

    Everything a factory accepts beyond the common execution config
    (``jobs``, ``batch_size``) is an option settable through
    a spec's ``execution.transport_options`` dict; deriving the set
    from the factory signature means registered third-party transports
    get strict validation for free.  A factory with a ``**kwargs``
    catch-all opts out of strictness: this returns None and
    :func:`validate_transport` accepts any key for it.
    """
    factory = transport_factories.resolve(name)
    parameters = inspect.signature(factory).parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return None
    return tuple(
        parameter
        for parameter in parameters
        if parameter not in _COMMON_CONFIG
    )


def validate_transport(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    *,
    where: str = "execution.transport_options",
) -> None:
    """Fail fast on an unknown transport name or a bad options key.

    The load-time half of the transport contract: a
    :class:`~repro.experiments.spec.StudySpec` naming a transport is
    validated here (unknown names raise with the known ones listed;
    unknown option keys raise naming the offending *where* path) so a
    bad spec fails before any shard — or any worker host — is touched.
    """
    transport_factories.resolve(name)  # unknown names raise, listing known
    if options:
        allowed = transport_option_names(name)
        if allowed is None:
            return  # the factory takes **kwargs: any key is its business
        unknown = sorted(set(options) - set(allowed))
        if unknown:
            raise ConfigurationError(
                f"unknown {where} key(s) {unknown} for transport {name!r}; "
                f"known: {sorted(allowed) if allowed else '(none)'}"
            )


def resolve_transport(
    name: str,
    *,
    jobs: int = 1,
    batch_size="auto",
    options: Optional[Mapping[str, Any]] = None,
) -> Transport:
    """Build the transport registered under *name* from picklable config.

    *jobs* and *batch_size* are the common execution config
    (a spec's ``execution`` section); *options* is the per-transport
    ``transport_options`` dict, validated strictly against the
    factory's signature before construction.  This is the single
    resolution path behind :func:`~repro.experiments.spec.run_study`,
    the service, and the CLI (all through
    :meth:`~repro.experiments.spec.StudySpec.build_inner_transport`).
    """
    validate_transport(name, options)
    factory = transport_factories.resolve(name)
    extra = dict(options) if options else {}
    return factory(jobs=jobs, batch_size=batch_size, **extra)


# ----------------------------------------------------------------------
# file-queue protocol helpers (shared with repro.experiments.worker)
# ----------------------------------------------------------------------
#: Subdirectories of a queue directory, in lifecycle order.
QUEUE_SUBDIRS = ("enqueue", "claim", "done", "payload")


def ensure_queue_layout(queue_dir: str) -> None:
    """Create the queue's subdirectories (idempotent).

    Both sides call this on startup, so workers may be pointed at a
    directory before any coordinator has enqueued work.
    """
    for subdir in QUEUE_SUBDIRS:
        os.makedirs(os.path.join(queue_dir, subdir), exist_ok=True)


def claim_next_ticket(
    queue_dir: str, *, run: Optional[str] = None
) -> Optional[str]:
    """Atomically claim one enqueued ticket; None when the queue is empty.

    Claiming renames ``enqueue/<name>.json`` to ``claim/<name>.json`` —
    atomic on one filesystem, so exactly one claimant wins a ticket; a
    lost race (the source vanished first) just moves on to the next
    candidate.  *run* restricts claiming to one coordinator's tickets
    (used by the coordinator itself; workers serve every run).  Returns
    the path of the claimed file under ``claim/``.
    """
    enqueue_dir = os.path.join(queue_dir, "enqueue")
    try:
        names = sorted(os.listdir(enqueue_dir))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        if run is not None and not name.startswith(run + "-"):
            continue
        source = os.path.join(enqueue_dir, name)
        target = os.path.join(queue_dir, "claim", name)
        try:
            os.rename(source, target)
        except (FileNotFoundError, PermissionError):
            continue  # lost the claim race; try the next ticket
        return target
    return None


def process_claimed_ticket(
    queue_dir: str, claim_path: str, *, worker_id: str
) -> bool:
    """Execute one claimed ticket and publish its outcomes to ``done/``.

    Reads the ticket JSON, unpickles its ``(fn, shards)`` payload, runs
    the shards through the same
    :func:`~repro.experiments.parallel._guarded_batch` guard as pool
    workers (stop at the first shard error; errors are captured, never
    raised here), and atomically writes the pickled outcome record.
    Returns False when the ticket's payload is already gone — the
    coordinator cleaned up a finished or abandoned run — in which case
    the stale claim file is removed and no result is produced.
    """
    try:
        with open(claim_path, "r", encoding="utf-8") as handle:
            ticket = json.load(handle)
        payload_path = os.path.join(queue_dir, ticket["payload"])
        with open(payload_path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, ValueError, KeyError, pickle.UnpicklingError):
        try:
            os.remove(claim_path)
        except OSError:
            pass
        return False
    outcomes = _guarded_batch(payload["fn"], [tuple(pair) for pair in payload["items"]])
    record = {
        "run": ticket["run"],
        "ticket": ticket["ticket"],
        "worker": worker_id,
        "outcomes": outcomes,
    }
    done_name = os.path.splitext(os.path.basename(claim_path))[0] + ".pkl"
    atomic_write(
        os.path.join(queue_dir, "done", done_name),
        pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
    )
    for stale in (claim_path, payload_path):
        try:
            os.remove(stale)
        except OSError:
            pass
    return True


def release_claimed_ticket(queue_dir: str, claim_path: str) -> bool:
    """Return a claimed-but-unexecuted ticket to the enqueue directory.

    The graceful-draining inverse of :func:`claim_next_ticket`'s
    rename: a worker told to stop after claiming (but before
    executing) hands the ticket straight back for another worker —
    instead of stranding it in ``claim/`` until the coordinator's
    ``reclaim_after`` clock expires.  Returns False when the claim
    file vanished (the coordinator already cleaned up the run).
    """
    name = os.path.basename(claim_path)
    target = os.path.join(queue_dir, "enqueue", name)
    try:
        os.rename(claim_path, target)
    except OSError:
        return False
    return True


def local_worker_id() -> str:
    """This process's claimant identity (``host-pid``) for done records."""
    return f"{socket.gethostname()}-{os.getpid()}"


class FileQueueTransport(_FallbackTransport):
    """A directory-backed work queue: the first multi-host transport.

    The coordinator (this class) groups shards into tickets, enqueues
    them under a queue directory (layout in the module docstring), and
    streams results back as ``done/`` pickles appear.  Any number of
    workers — ``python -m repro worker --queue DIR`` on this host or on
    any host sharing the directory — claim tickets via atomic rename
    and execute them with the exact worker-side semantics of the
    process pool: shards are pure
    :class:`~repro.experiments.runner.RunSpec` records, mechanisms and
    engines re-resolve by registry name, and shard errors are captured
    per shard and re-raised in the coordinator exactly once.

    Determinism is inherited from the sharding contract: reassembly is
    by shard index, so the assembled study is byte-identical to the
    serial and pool transports for any worker count, host count, or
    completion order.

    Liveness does not depend on workers existing: while waiting, the
    coordinator claims tickets itself (``self_process``) and reclaims
    tickets whose claimant died (``reclaim_after``), so a run always
    terminates — with zero workers it simply degrades to in-process
    speed.  Transport-level failures (an unwritable queue directory, an
    unpicklable shard function) degrade to serial in-process execution
    with a :class:`~repro.experiments.parallel.ParallelFallbackWarning`
    naming the cause, matching the pool's observable-fallback policy.
    """

    #: Queue trouble — never the shard function's own errors, which are
    #: captured worker-side by the guarded batch and surface as
    #: :class:`~repro.experiments.parallel._ShardFailure` instead.
    _FAILURES = (OSError, pickle.PickleError, ValueError, KeyError, EOFError)

    def __init__(
        self,
        *,
        queue_dir: Optional[str] = None,
        jobs: int = 1,
        batch_size: int | str = "auto",
        workers: Optional[int] = None,
        poll_interval: float = 0.05,
        reclaim_after: float = 60.0,
        self_process: bool = True,
        max_wait: Optional[float] = None,
    ) -> None:
        """Configure the queue coordinator.

        Args:
            queue_dir: the shared queue directory.  None (default)
                creates a private temporary queue per ``map``/``imap``
                call and removes it afterwards — the single-host
                convenience mode; point it at a shared filesystem path
                to fan out across hosts.
            jobs: parallelism hint: ``batch_size="auto"`` cuts
                ``jobs`` tickets per round, and it is the default local
                *workers* count.
            batch_size: shards per ticket: ``"auto"`` (a cheap study
                ships as one ticket per job, a big one is cut finer)
                or an int >= 1 (contiguous chunks of that many shards)
                — same vocabulary, policy and reassembly guarantee as
                :class:`~repro.experiments.parallel.ParallelExecutor`.
            workers: local worker subprocesses to spawn for the
                duration of each map (terminated afterwards).  Default
                (None) spawns *jobs* workers; pass 0 when external
                workers — other processes, other hosts — serve the
                queue.
            poll_interval: seconds between ``done/`` scans.
            reclaim_after: seconds after which a claimed-but-unfinished
                ticket is presumed orphaned (its claimant died) and
                re-executed by the coordinator; duplicates are ignored
                by construction.
            self_process: whether the coordinator claims tickets itself
                while idle.  Leave True unless measuring pure external
                worker throughput — False plus zero live workers means
                the run waits for someone to serve it (bounded only by
                *max_wait*).
            max_wait: seconds without any completed ticket before the
                coordinator gives up on the queue and finishes the
                remaining shards in-process (with a
                :class:`~repro.experiments.parallel.ParallelFallbackWarning`).
                None waits indefinitely; mostly useful with
                ``self_process=False``.
        """
        super().__init__(jobs, batch_size)
        if workers is not None and (
            not isinstance(workers, int) or isinstance(workers, bool)
            or workers < 0
        ):
            raise ConfigurationError(
                f"workers must be None or an int >= 0, got {workers!r}"
            )
        if queue_dir is not None and (
            not isinstance(queue_dir, str) or not queue_dir
        ):
            raise ConfigurationError(
                f"queue_dir must be None or a non-empty path, got {queue_dir!r}"
            )
        if not isinstance(self_process, bool):
            raise ConfigurationError(
                f"self_process must be a bool, got {self_process!r}"
            )
        self.max_wait = (
            None if max_wait is None else require_positive("max_wait", max_wait)
        )
        self.queue_dir = queue_dir
        self.workers = workers
        self.poll_interval = require_positive("poll_interval", poll_interval)
        self.reclaim_after = require_positive("reclaim_after", reclaim_after)
        self.self_process = self_process
        #: Optional observer ``sink(index, value)`` fed every successful
        #: outcome the moment its ticket is ingested — *before* the
        #: streaming consumer sees it and before queue cleanup deletes
        #: the ``done/`` record.  Duck-typed (set by
        #: :class:`repro.cache.transport.CachedTransport`) so outcomes
        #: computed by other hosts persist even when the coordinating
        #: study is cancelled mid-record.
        self.outcome_sink = None

    # ------------------------------------------------------------------
    # the fallback shell's backend
    # ------------------------------------------------------------------
    def _fan_out(
        self, fn: Callable, batches: List[List[Tuple[int, Any]]]
    ) -> Iterator[Tuple[int, Any]]:
        """Enqueue *batches* as tickets and stream them back as they complete.

        :attr:`last_map_parallel` ends True when at least one ticket was
        completed by another process (a spawned or external worker) —
        the multi-host analogue of the pool's diagnostic.
        """
        try:
            session = _QueueSession.open(self)
        except OSError as exc:
            raise OSError(f"could not set up the queue directory ({exc})") from exc
        try:
            pending = session.enqueue(fn, batches)
            yield from self._collect(session, fn, pending)
        finally:
            session.close()

    # ------------------------------------------------------------------
    # coordinator internals
    # ------------------------------------------------------------------
    def _collect(
        self,
        session: "_QueueSession",
        fn: Callable,
        pending: Dict[int, List[Tuple[int, Any]]],
    ) -> Iterator[Tuple[int, Any]]:
        """Stream completed tickets, helping out and reclaiming strays.

        Shard errors surface as :class:`_ShardFailure` (so the caller
        can tell them apart from queue failures regardless of the
        underlying exception type); queue trouble propagates as the
        raw OS/pickle error for the fallback shell's handler.
        """
        external_done = 0
        last_progress = time.monotonic()
        while pending:
            progressed = False
            for ticket, record in session.drain_done(pending):
                pending.pop(ticket)
                progressed = True
                if record["worker"] != session.worker_id:
                    external_done += 1
                # Feed the whole record to the sink before yielding any
                # of it: drain_done has already deleted the done/ file,
                # so if the consumer abandons the stream mid-record the
                # sink is the only place these outcomes survive.
                self._feed_sink(record["outcomes"])
                for index, outcome in record["outcomes"]:
                    if outcome.error is not None:
                        raise _ShardFailure(outcome)
                    yield index, outcome.value
            if not pending:
                break
            if progressed:
                last_progress = time.monotonic()
                continue
            if self.self_process and session.help_one():
                continue
            if (
                self.max_wait is not None
                and time.monotonic() - last_progress >= self.max_wait
            ):
                raise TimeoutError(
                    f"no ticket completed within max_wait={self.max_wait}s; "
                    f"outstanding: {session.describe_outstanding(pending)}"
                )
            time.sleep(self.poll_interval)
            reclaimed = session.reclaim_stale(pending, self.reclaim_after)
            for ticket in reclaimed:
                chunk = pending.pop(ticket)
                outcomes = _guarded_batch(fn, chunk)
                self._feed_sink(outcomes)
                for index, outcome in outcomes:
                    if outcome.error is not None:
                        raise _ShardFailure(outcome)
                    yield index, outcome.value
            if reclaimed:
                # Reclaims are progress too: max_wait measures time
                # without any completed ticket, however it completed.
                last_progress = time.monotonic()
        self.last_map_parallel = external_done > 0

    def _feed_sink(
        self, outcomes: Sequence[Tuple[int, "_ShardOutcome"]]
    ) -> None:
        """Push a record's successful outcomes to :attr:`outcome_sink`."""
        sink = self.outcome_sink
        if sink is None:
            return
        for index, outcome in outcomes:
            if outcome.error is None:
                sink(index, outcome.value)

    def _spawn_count(self) -> int:
        """Local worker subprocesses to start per map."""
        return self.workers if self.workers is not None else self.jobs

    def __repr__(self) -> str:
        return (
            f"FileQueueTransport(queue_dir={self.queue_dir!r}, "
            f"jobs={self.jobs}, workers={self._spawn_count()})"
        )


class _QueueSession:
    """One map's worth of queue state: run id, directories, workers."""

    def __init__(
        self, transport: FileQueueTransport, queue_dir: str, owns_dir: bool
    ) -> None:
        self.transport = transport
        self.queue_dir = queue_dir
        self.owns_dir = owns_dir
        # lint: allow[wall-clock] -- queue-session label only: the run id
        # namespaces ticket files on a shared directory and never feeds
        # results; colliding coordinators must not reuse each other's
        # tickets, so OS entropy is exactly right here
        self.run = f"run-{uuid.uuid4().hex[:12]}"
        self.worker_id = local_worker_id()
        self.procs: List[subprocess.Popen] = []
        self._claim_seen: Dict[str, float] = {}

    @classmethod
    def open(cls, transport: FileQueueTransport) -> "_QueueSession":
        """Create (or adopt) the queue directory and start local workers."""
        owns_dir = transport.queue_dir is None
        queue_dir = (
            tempfile.mkdtemp(prefix="repro-queue-")
            if owns_dir
            else transport.queue_dir
        )
        ensure_queue_layout(queue_dir)
        session = cls(transport, queue_dir, owns_dir)
        return session

    # -- enqueue -------------------------------------------------------
    def enqueue(
        self, fn: Callable, chunks: Sequence[List[Tuple[int, Any]]]
    ) -> Dict[int, List[Tuple[int, Any]]]:
        """Publish each ``(index, shard)`` chunk as a ticket; returns
        {ticket: chunk}."""
        pending: Dict[int, List[Tuple[int, Any]]] = {}
        for number, chunk in enumerate(chunks):
            stem = f"{self.run}-{number:05d}"
            payload_rel = os.path.join("payload", stem + ".pkl")
            atomic_write(
                os.path.join(self.queue_dir, payload_rel),
                pickle.dumps(
                    {"fn": fn, "items": chunk},
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
            ticket = {
                "run": self.run,
                "ticket": number,
                "indices": [index for index, _ in chunk],
                "payload": payload_rel,
            }
            atomic_write(
                os.path.join(self.queue_dir, "enqueue", stem + ".json"),
                (json.dumps(ticket, indent=None) + "\n").encode("utf-8"),
            )
            pending[number] = chunk
        self._start_workers()
        return pending

    def _start_workers(self) -> None:
        """Spawn the transport's local worker subprocesses, if any."""
        count = self.transport._spawn_count()
        if count <= 0:
            return
        env = dict(os.environ)
        parent_paths = [entry for entry in sys.path if entry]
        existing = env.get("PYTHONPATH", "")
        merged = parent_paths + (
            [p for p in existing.split(os.pathsep) if p and p not in parent_paths]
        )
        env["PYTHONPATH"] = os.pathsep.join(merged)
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            self.queue_dir,
            "--poll",
            str(min(self.transport.poll_interval, 0.2)),
            # Orphan backstop: if the coordinator is hard-killed and
            # never terminates us, exit once the queue stays idle.
            "--max-idle",
            str(max(60.0, 2 * self.transport.reclaim_after)),
        ]
        for _ in range(count):
            self.procs.append(
                subprocess.Popen(
                    command, env=env, stdout=subprocess.DEVNULL
                )
            )

    # -- collection ----------------------------------------------------
    def drain_done(
        self, pending: Mapping[int, Any]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Collect this run's finished tickets from ``done/``.

        Files belonging to other runs (or to tickets already satisfied
        by a reclaim) are skipped; corrupt files are deleted so a stray
        can never wedge the poll loop — the ticket stays pending and is
        eventually reclaimed.
        """
        done_dir = os.path.join(self.queue_dir, "done")
        collected: List[Tuple[int, Dict[str, Any]]] = []
        for name in sorted(os.listdir(done_dir)):
            if not (name.startswith(self.run + "-") and name.endswith(".pkl")):
                continue
            path = os.path.join(done_dir, name)
            try:
                with open(path, "rb") as handle:
                    record = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            try:
                os.remove(path)
            except OSError:
                pass
            ticket = record.get("ticket")
            if ticket in pending:
                collected.append((ticket, record))
        return collected

    def help_one(self) -> bool:
        """Claim and execute one of this run's tickets in-process."""
        claimed = claim_next_ticket(self.queue_dir, run=self.run)
        if claimed is None:
            return False
        return process_claimed_ticket(
            self.queue_dir, claimed, worker_id=self.worker_id
        )

    def reclaim_stale(
        self, pending: Mapping[int, Any], reclaim_after: float
    ) -> List[int]:
        """Tickets claimed so long ago their claimant is presumed dead.

        The first sighting of each claim file starts its clock (claim
        mtimes may come from another host's clock, so wall-clock deltas
        are measured locally).  Returned tickets are removed from the
        claim directory; the coordinator re-executes them from its
        in-memory copy of the shards.
        """
        now = time.monotonic()
        stale: List[int] = []
        claim_dir = os.path.join(self.queue_dir, "claim")
        try:
            names = os.listdir(claim_dir)
        except FileNotFoundError:
            return stale
        live = set()
        for name in names:
            if not (name.startswith(self.run + "-") and name.endswith(".json")):
                continue
            live.add(name)
            first_seen = self._claim_seen.setdefault(name, now)
            if now - first_seen < reclaim_after:
                continue
            try:
                number = int(name[len(self.run) + 1 : -len(".json")])
            except ValueError:
                continue
            if number not in pending:
                continue
            try:
                os.remove(os.path.join(claim_dir, name))
            except OSError:
                pass
            stale.append(number)
        self._claim_seen = {
            name: seen for name, seen in self._claim_seen.items() if name in live
        }
        return stale

    def describe_outstanding(
        self, pending: Mapping[int, Any], *, limit: int = 8
    ) -> str:
        """Name the pending tickets and their claim ages (for timeouts).

        Each outstanding ticket is reported as ``<run>-<number>``
        followed by ``claimed ~Xs ago`` (measured from this
        coordinator's first sighting of the claim file — the same
        local clock :meth:`reclaim_stale` uses) or ``unclaimed`` when
        no worker has picked it up; at most *limit* tickets are listed
        before an ``... and N more`` tail.
        """
        now = time.monotonic()
        claim_dir = os.path.join(self.queue_dir, "claim")
        try:
            claimed = set(os.listdir(claim_dir))
        except OSError:
            claimed = set()
        parts: List[str] = []
        for number in sorted(pending):
            stem = f"{self.run}-{number:05d}"
            if f"{stem}.json" in claimed:
                seen = self._claim_seen.get(f"{stem}.json")
                status = (
                    f"claimed ~{now - seen:.1f}s ago"
                    if seen is not None
                    else "claimed"
                )
            else:
                status = "unclaimed"
            parts.append(f"{stem} ({status})")
        shown = parts[:limit]
        if len(parts) > limit:
            shown.append(f"... and {len(parts) - limit} more")
        return ", ".join(shown) if shown else "none"

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Terminate spawned workers and remove this run's queue files."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if self.owns_dir:
            shutil.rmtree(self.queue_dir, ignore_errors=True)
            return
        for subdir in QUEUE_SUBDIRS:
            directory = os.path.join(self.queue_dir, subdir)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.startswith(self.run + "-"):
                    try:
                        os.remove(os.path.join(directory, name))
                    except OSError:
                        pass


@transport_factories.register("file-queue")
def file_queue_transport(
    *,
    jobs: int = 1,
    batch_size="auto",
    queue_dir: Optional[str] = None,
    workers: Optional[int] = None,
    poll_interval: float = 0.05,
    reclaim_after: float = 60.0,
    self_process: bool = True,
    max_wait: Optional[float] = None,
) -> FileQueueTransport:
    """The directory-backed multi-host backend (see the class docs).

    Everything beyond the common execution config is a
    ``transport_options`` key: ``queue_dir``, ``workers``,
    ``poll_interval``, ``reclaim_after``, ``self_process``,
    ``max_wait``.
    """
    return FileQueueTransport(
        queue_dir=queue_dir,
        jobs=jobs,
        batch_size=batch_size,
        workers=workers,
        poll_interval=poll_interval,
        reclaim_after=reclaim_after,
        self_process=self_process,
        max_wait=max_wait,
    )
