"""Parallel multi-seed experiment orchestration.

The paper's evaluation is a mechanism × ζtarget × Φmax grid (Φmax ∈
{Tepoch/1000, Tepoch/100} for Figs. 5–8); replicated runs add a fourth
axis (the seed replicate).  This module shards that grid into
independent cells, executes the shards on a process pool, and
guarantees that the assembled result is **bit-identical** no matter how
many workers ran it or in which order the shards completed.

Sharding contract
=================

A shard is one ``(mechanism, ζtarget, Φmax, replicate)`` cell,
materialised as a :class:`~repro.experiments.runner.RunSpec`.  Three
rules make the grid safe to scatter:

1. **Cells are pure.**  A spec carries its complete scenario (seed and
   Φmax budget included), so executing it is a pure function of the
   spec.  No cell reads state written by another cell.
2. **Seeds are derived up front, never consumed from a shared stream.**
   Replicate ``r`` of a sweep with base seed ``s`` runs with seed
   ``replicate_seed(s, r)``: replicate 0 keeps ``s`` itself (so a
   1-replicate sweep reproduces the historical serial behaviour
   exactly), and later replicates derive independent substreams via
   :func:`repro.sim.rng.derive_seed`, a pure function of
   ``(base seed, key)`` that is insensitive to derivation order.
   Within one replicate every mechanism, ζtarget **and Φmax budget**
   shares the same seed, preserving the paper's paired-comparison
   design: mechanisms are judged on identical contact processes, and
   the tight and loose budgets see identical traffic.  (Trace
   generation never consumes Φmax, so sharing a seed across budgets is
   sound — the budget only changes how the trace is probed.)
3. **Results are reassembled by shard index, not completion order.**
   Every transport implements one method, :meth:`Transport.imap`,
   which yields ``(shard index, result)`` pairs as shards complete;
   consumers slot each result into its index before aggregating, and
   :meth:`Transport.map` — defined once, on the base class — is the
   input-aligned blocking view of the same stream.  Aggregation never
   observes scheduling nondeterminism — a table can render
   incrementally while the assembled grid stays byte-identical.

Together these rules give the determinism property the test suite pins
(`tests/experiments/test_parallel.py`, `tests/experiments/test_grid.py`):
``jobs=1``, ``jobs=4``, and an adversarially shuffled execution order
all produce byte-identical series for every Φmax budget.

Transports
==========

:class:`Transport` is the base class of every backend, and every study
runs on one: there is no "no transport" path.
:class:`SerialExecutor` runs shards in-process, lazily, one shard per
pair pulled (the default everywhere, and the reference semantics).
Backends that ship shards out of process — :class:`ParallelExecutor`
here, ``FileQueueTransport`` in :mod:`repro.experiments.transport` —
share one fallback shell that distinguishes two failure classes:

* **Worker-side shard errors** — the shard function itself raised (a
  buggy scheduler factory, a configuration error inside a cell) —
  propagate to the caller exactly once, immediately.  Completed shards
  are never re-executed: re-running a deterministic failure serially
  would double the wall-clock only to raise the same exception again.
* **Transport failures** — the pool could not start, a worker process
  died, a spec or result would not pickle, the queue directory is
  unwritable — degrade to the in-process path with a
  :class:`ParallelFallbackWarning` naming the cause, so ``--jobs 8``
  users are never unknowingly running serial.  Cells are pure, so only
  the shards not yet yielded are re-run, and the assembled answer is
  identical.

Shards ship in batches, one pool task (or file-queue ticket) each.
``batch_size="auto"`` cuts the shards, in study order, into near-equal
contiguous pieces, one per worker per round: ``jobs`` pieces per
:data:`AUTO_BATCH_EPOCHS` simulated cell-epochs per worker, so every
round keeps every worker busy and no piece holds much more than that
much work.  A cheap study ships as one task per worker (2 for a
12-cell, 2-epoch study on 2 jobs); the 108-cell, 14-epoch paper grid
ships as 12 tasks of 9 on 2 or 4 jobs and 16 of 6–7 on 8.  An int
``batch_size`` cuts contiguous chunks of that many shards instead.
Batching changes only the transport granularity — results are still
reassembled by original shard index, so the assembled answer stays
byte-identical for any batch size.

Scheduler factories that are closures cannot cross a process boundary;
register them by name in :mod:`repro.experiments.registry` and pass the
name instead — workers re-resolve the name on their side of the
boundary.

A :class:`ParallelExecutor`'s workers live as long as the executor, not
one :meth:`Transport.imap` call: they fork at its first fan-out and
serve every later one until :meth:`Transport.close` (the study service
keeps one pool from its first pool study to its shutdown).  A forked
worker sees the registries as they were at the fork, so a mechanism,
scenario or engine registered afterwards is not visible to it: register
plugins before the first pool study (before serving).

Both executors are registered by name
(:mod:`repro.experiments.transport`): ``"serial"`` and ``"pool"`` in
:data:`repro.experiments.registry.transport_factories`, next to the
directory-backed ``"file-queue"`` backend — so a
:class:`~repro.experiments.spec.StudySpec` selects its execution
backend by name exactly like it selects mechanisms and engines.  That
registry name is a transport's only name: a plain serial spec builds a
:class:`SerialExecutor` like any other, and whoever builds a transport
closes it.

Because shards are pure (rule 1), their outcomes are also
**memoizable**: :class:`repro.cache.transport.CachedTransport`
decorates any of these transports with a content-addressed cell cache
(``StudySpec.execution.cache``), serving previously computed shards
from disk and running only the misses downstream.  The decorator sits
entirely on top of this module's contract — hits and misses are merged
back by shard index (rule 3), so the assembled result stays
byte-identical to an uncached run.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
import traceback
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed, process
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from ..errors import ConfigurationError
from ..sim.rng import derive_seed

SpecT = TypeVar("SpecT")
ResultT = TypeVar("ResultT")

#: One pool task or file-queue ticket: ``(shard index, shard)`` pairs.
_Batch = List[Tuple[int, Any]]

#: ``batch_size="auto"`` gives each worker about this many cell-epochs
#: (shards × simulated epochs; a shard with no scenario counts 1) per
#: batch: 10–20 ms of vector-engine work against well under 1 ms of
#: per-task overhead, while a big study still gets several batches per
#: worker to balance the end of the run.
AUTO_BATCH_EPOCHS = 128


class ParallelFallbackWarning(RuntimeWarning):
    """Emitted when :class:`ParallelExecutor` degrades to serial execution.

    The message names the cause (an unpicklable shard function, a dead
    worker, ...) so a ``--jobs N`` user can tell that their run silently
    lost its parallelism — the results are still identical.
    """


class ShardError(RuntimeError):
    """A worker-side shard exception that could not cross the boundary.

    Raised in place of the original exception when that exception is not
    picklable; the message carries the worker's formatted traceback.
    """


def available_cpus() -> int:
    """CPU cores usable by this process (cgroup/affinity aware).

    ``os.cpu_count()`` reports installed cores; under a container CPU
    quota or `taskset` that overstates real parallelism, so prefer the
    scheduler affinity mask where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _validate_batch_size(batch_size: int | str) -> None:
    """Reject anything that is not an int >= 1 or the string ``"auto"``.

    Shared by every transport that batches shards and by
    :class:`~repro.experiments.spec.StudySpec`, so the accepted
    ``batch_size`` vocabulary cannot drift between backends and specs.
    ``bool`` is an ``int`` subclass but never a shard count.
    """
    if isinstance(batch_size, str) and batch_size == "auto":
        return
    if (
        not isinstance(batch_size, int)
        or isinstance(batch_size, bool)
        or batch_size < 1
    ):
        raise ConfigurationError(
            f'batch_size must be an int >= 1 or "auto", got {batch_size!r}'
        )


def replicate_seed(base_seed: int, replicate: int) -> int:
    """The scenario seed for replicate *replicate* of a replicated run.

    Replicate 0 is the base seed itself — a single-replicate run is
    byte-identical to the historical unreplicated path — and every
    later replicate derives an independent substream keyed by its index.
    """
    if replicate < 0:
        raise ConfigurationError(f"replicate must be >= 0, got {replicate}")
    if replicate == 0:
        return base_seed
    return derive_seed(base_seed, "replicate", replicate)


class Transport(ABC):
    """One execution backend: the contract every transport satisfies.

    Shards are pure (sharding-contract rule 1), so a transport may run
    them anywhere and in any order; its one required method,
    :meth:`imap`, yields ``(shard index, result)`` pairs as shards
    complete, and every consumer slots each result into its index
    (rule 3), so the assembled answer is byte-identical no matter which
    backend ran it.  :meth:`map` is the blocking view over that stream.
    Transports register by name in
    :data:`repro.experiments.registry.transport_factories` and are
    constructed from picklable configuration only, so the *description*
    of how to execute a study travels inside the study file itself.
    """

    #: Optional workload name a backend includes in its fallback
    #: warnings.  :func:`repro.experiments.spec.run_study` tags an unset
    #: label with the study name for the duration of a run.
    label: Optional[str] = None

    #: Whether the most recent :meth:`imap` actually fanned out (each
    #: backend defines what counts): a diagnostic for benches, the CLI
    #: and tests.  Results are identical either way.
    last_map_parallel = False

    @abstractmethod
    def imap(
        self, fn: Callable[[SpecT], ResultT], items: Sequence[SpecT]
    ) -> Iterator[Tuple[int, ResultT]]:
        """Yield ``(shard index, result)`` pairs as shards complete.

        Completion order is unspecified; consumers must reassemble by
        index (sharding-contract rule 3).
        """

    def map(
        self, fn: Callable[[SpecT], ResultT], items: Sequence[SpecT]
    ) -> List[ResultT]:
        """Apply *fn* to every item; results align with input order."""
        items = list(items)
        results: List[ResultT] = [None] * len(items)  # type: ignore[list-item]
        for index, result in self.imap(fn, items):
            results[index] = result
        return results

    def close(self) -> None:
        """Release what the transport keeps between :meth:`imap` calls.

        The base transport keeps nothing, so this does nothing; a
        backend whose workers outlive one call (:class:`ParallelExecutor`)
        stops them here.  Closing is idempotent and a closed transport
        stays usable: its next :meth:`imap` starts over.
        """


def _serial(
    fn: Callable[[SpecT], ResultT], indexed_items: Iterable[Tuple[int, SpecT]]
) -> Iterator[Tuple[int, ResultT]]:
    """Run shards in this process, one per pair pulled: the reference loop.

    :class:`SerialExecutor` streams every workload through it, and the
    fallback shell runs trivial workloads and every fallback through
    it.  Because it is lazy, a consumer — a cache storing each miss, a
    cancellation check in a progress callback — acts on each result
    before the next shard starts.
    """
    for index, item in indexed_items:
        yield index, fn(item)


class SerialExecutor(Transport):
    """In-process execution: the reference semantics for every executor."""

    def imap(
        self, fn: Callable[[SpecT], ResultT], items: Sequence[SpecT]
    ) -> Iterator[Tuple[int, ResultT]]:
        """Yield ``(index, fn(item))`` pairs lazily, in input order."""
        return _serial(fn, enumerate(items))

    def __repr__(self) -> str:
        return "SerialExecutor()"


@dataclass
class _ShardOutcome:
    """What one guarded shard sent back: a value or a captured exception."""

    value: Any = None
    error: Optional[BaseException] = None
    traceback_text: str = field(default="", repr=False)


class _ShardFailure(Exception):
    """Internal wrapper carrying a worker-side shard error outcome.

    Backends raise it from :meth:`_FallbackTransport._fan_out` so a
    shard exception whose *type* overlaps the backend's transport
    failures (a shard raising ``TypeError`` or ``OSError``, say) can
    never be mistaken for transport trouble and silently retried — the
    shell unwraps it and re-raises the original exactly once.
    """

    def __init__(self, outcome: _ShardOutcome) -> None:
        super().__init__("worker-side shard error")
        self.outcome = outcome


def _guarded_batch(
    fn: Callable, indexed_items: Sequence[Tuple[int, Any]]
) -> List[Tuple[int, _ShardOutcome]]:
    """Run a batch of shards in one pool task, preserving their indices.

    Batching amortizes per-task pickling and scheduling overhead when
    individual shards are tiny (closed-form cells take microseconds;
    shipping each one separately can cost more than running it).  Each
    shard is still guarded individually, so the parent reassembles by
    the original shard index — byte-identical to unbatched execution —
    and a shard error surfaces with its own traceback.  Execution stops
    at the first error in the batch: later shards of the batch would be
    cancelled anyway once the parent sees the failure.
    """
    outcomes: List[Tuple[int, _ShardOutcome]] = []
    for index, item in indexed_items:
        outcome = _guarded_shard(fn, item)
        outcomes.append((index, outcome))
        if outcome.error is not None:
            break
    return outcomes


def _rehydrate(failure: _ShardOutcome) -> BaseException:
    """The shard's exception, annotated with its capture-site traceback."""
    error = failure.error
    assert error is not None
    if failure.traceback_text:
        note = "shard traceback (at the raise site):\n" + failure.traceback_text
        if hasattr(error, "add_note"):
            error.add_note(note)
        elif error.__cause__ is None:  # Python 3.10: chain instead
            error.__cause__ = ShardError(note)
    return error


def _guarded_shard(fn: Callable, item: Any) -> _ShardOutcome:
    """Run one shard in a worker, capturing any exception it raises.

    Module-level (hence picklable by reference) so the pool can ship it.
    Capturing worker-side is what lets the parent distinguish a genuine
    shard error (propagate immediately, no serial re-run) from a
    transport failure (fall back to serial).  An exception that cannot
    itself be pickled is replaced by a :class:`ShardError` carrying the
    worker's formatted traceback.
    """
    try:
        return _ShardOutcome(value=fn(item))
    # lint: allow[broad-except] -- the executor boundary: any worker-side
    # exception must be captured whole and re-raised in the parent
    except Exception as exc:  # noqa: BLE001
        text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        # lint: allow[broad-except] -- pickling arbitrary exceptions can
        # fail with anything; an unpicklable one is wrapped, not lost
        except Exception:
            exc = ShardError(
                f"shard raised unpicklable {type(exc).__name__}; "
                f"worker traceback:\n{text}"
            )
        return _ShardOutcome(error=exc, traceback_text=text)


def _transport_problem(fn: Callable, items: Sequence) -> Optional[str]:
    """Why *fn* and a sample shard cannot leave this process, or None.

    Only the first item is checked — shard lists are homogeneous in
    practice (the unpicklable part, e.g. a closure factory, appears in
    every shard), and pickling the whole workload twice would double
    the dominant fan-out cost.  A heterogeneous list that slips through
    is caught as a transport failure mid-run.
    """
    try:
        pickle.dumps(fn)
    # lint: allow[broad-except] -- a pre-flight probe: any pickling
    # failure, whatever its type, means the shards cannot be shipped
    except Exception:
        return (
            f"the shard function {getattr(fn, '__name__', fn)!r} is not "
            "picklable; use a module-level function or a registry name "
            "(repro.experiments.registry)"
        )
    if items:
        try:
            pickle.dumps(items[0])
        # lint: allow[broad-except] -- same pre-flight probe for the
        # sampled shard payload
        except Exception:
            return (
                "the shards are not picklable (closures as scheduler "
                "factories? register them by name in "
                "repro.experiments.registry)"
            )
    return None


class _FallbackTransport(Transport):
    """The shell shared by transports that run shards out of process.

    A backend supplies :meth:`_fan_out` — ship the shards, yield
    ``(index, value)`` pairs as they come back, raise
    :class:`_ShardFailure` for a shard's own error and anything in
    :attr:`_FAILURES` for trouble of its own.  The shell owns the rest,
    so it is identical for every backend: cutting the shards into
    batches (:meth:`_batches`), the picklability pre-flight, the
    in-process path for trivial workloads, and the observable fallback — a
    :class:`ParallelFallbackWarning` naming the cause, then the shards
    not yet yielded finished in-process.  A shard's own exception is
    raised exactly once and never triggers the fallback.
    """

    #: Exceptions meaning the backend itself failed (shard errors arrive
    #: as :class:`_ShardFailure` instead, whatever their type).
    _FAILURES: Tuple[Type[BaseException], ...] = ()

    def __init__(
        self, jobs: int, batch_size: int | str, label: Optional[str] = None
    ) -> None:
        # bool is an int subclass but never a worker count.
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigurationError(f"jobs must be an int >= 1, got {jobs!r}")
        _validate_batch_size(batch_size)
        self.jobs = jobs
        self.batch_size = batch_size
        self.label = label

    def imap(
        self, fn: Callable[[SpecT], ResultT], items: Sequence[SpecT]
    ) -> Iterator[Tuple[int, ResultT]]:
        """Yield ``(shard index, result)`` pairs as the backend finishes them.

        Failure semantics (module docstring): a shard's own exception is
        re-raised here exactly once — completed shards are never re-run.
        A transport failure instead finishes the shards not yet yielded
        in-process and warns with :class:`ParallelFallbackWarning`.
        """
        items = list(items)
        self.last_map_parallel = False
        if self._in_process_only(len(items)):
            # Intentionally serial (trivial workload): not a degradation,
            # so no warning.
            yield from _serial(fn, enumerate(items))
            return
        problem = _transport_problem(fn, items)
        if problem is not None:
            self._warn_fallback(problem)
            yield from _serial(fn, enumerate(items))
            return
        yielded = set()
        failure: Optional[_ShardOutcome] = None
        stream = self._fan_out(fn, self._batches(items))
        try:
            for index, value in stream:
                yielded.add(index)
                yield index, value
        except _ShardFailure as exc:
            failure = exc.outcome
        except self._FAILURES as exc:
            # Cells are pure, so finishing the shards not yet yielded
            # in-process gives the identical answer.
            remaining = [
                (index, item)
                for index, item in enumerate(items)
                if index not in yielded
            ]
            self._warn_fallback(
                f"the transport failed ({type(exc).__name__}: {exc}); "
                f"finishing {len(remaining)} incomplete shard(s) in-process"
            )
            yield from _serial(fn, remaining)
        finally:
            stream.close()
        if failure is not None:
            raise _rehydrate(failure)

    def _in_process_only(self, n_items: int) -> bool:
        """Whether a workload of *n_items* is too small to ship at all."""
        return n_items == 0

    @abstractmethod
    def _fan_out(
        self, fn: Callable[[SpecT], ResultT], batches: List[_Batch]
    ) -> Iterator[Tuple[int, ResultT]]:
        """The backend: ship *batches*, yield ``(index, value)`` as they return."""

    def _batches(self, items: Sequence[SpecT]) -> List[_Batch]:
        """The ``(index, shard)`` batches *items* ship as, one per task.

        An int ``batch_size`` cuts contiguous chunks of that many shards.
        ``"auto"`` cuts ``jobs`` near-equal contiguous pieces per round,
        with as many rounds as the study has :data:`AUTO_BATCH_EPOCHS`
        cell-epochs per worker (at least one), and never more pieces
        than shards.
        """
        indexed = list(enumerate(items))
        if self.batch_size != "auto":
            size = int(self.batch_size)
            return [indexed[i : i + size] for i in range(0, len(indexed), size)]
        epochs = sum(
            getattr(getattr(shard, "scenario", None), "epochs", 1) for shard in items
        )
        rounds = max(1, -(-epochs // (self.jobs * AUTO_BATCH_EPOCHS)))
        count = min(len(indexed), self.jobs * rounds)
        bounds = [len(indexed) * k // count for k in range(count + 1)]
        return [indexed[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _warn_fallback(self, cause: str) -> None:
        """Emit the (observable) degradation diagnostic."""
        who = repr(self)
        if self.label:
            who += f" [{self.label}]"
        warnings.warn(
            f"{who} degraded to serial in-process execution: {cause}",
            ParallelFallbackWarning,
            stacklevel=3,
        )


class ParallelExecutor(_FallbackTransport):
    """Process-pool execution with an observable serial fallback.

    Usage::

        executor = ParallelExecutor(jobs=4)
        try:
            study = run_study(spec, executor=executor)
        finally:
            executor.close()

    Determinism is inherited from the sharding contract (module
    docstring): because every shard is pure and results are reassembled
    by input index, the answer is byte-identical to
    :class:`SerialExecutor`'s.  Transport failures keep that promise by
    degrading to the serial path (with a :class:`ParallelFallbackWarning`
    naming the cause); worker-side shard exceptions propagate exactly
    once with no serial re-run of completed shards.
    :attr:`last_map_parallel` is True only when the whole workload ran
    on the pool.

    The workers fork at the first fan-out, one per batch up to
    :attr:`jobs`, and serve every later :meth:`imap` until
    :meth:`close`; a later fan-out with more batches than workers
    replaces the pool with a larger one.  Whoever builds the executor
    closes it.  A shard error or an abandoned stream keeps the pool; a
    transport failure closes it, and the next fan-out forks a new one.
    """

    #: Pool startup, spec/result pickling, worker process lifetime —
    #: never the shard function, whose exceptions are captured
    #: worker-side by :func:`_guarded_shard`.
    _FAILURES = (
        pickle.PicklingError,
        TypeError,
        AttributeError,
        process.BrokenProcessPool,
        OSError,
    )

    def __init__(
        self,
        jobs: int | None = None,
        *,
        batch_size: int | str = 1,
        label: Optional[str] = None,
    ) -> None:
        """Configure the pool fan-out.

        Args:
            jobs: worker processes, an int >= 1; default: the
                available CPU count.
            batch_size: shards grouped into one pool task.  The default
                ``1`` ships every shard separately (the historical
                behaviour); an integer ``k`` groups k consecutive shards
                per task; ``"auto"`` cuts ``jobs`` near-equal
                contiguous tasks per :data:`AUTO_BATCH_EPOCHS`
                cell-epochs per worker (module docstring), so a cheap
                study ships as one task per worker and a big one still
                load-balances.  Reassembly is by original shard index
                either way, so results are byte-identical for any batch
                size.
            label: optional workload name included in every
                :class:`ParallelFallbackWarning` so a degraded run can be
                traced back to the study/spec that issued it.
        """
        super().__init__(
            jobs if jobs is not None else available_cpus(), batch_size, label
        )
        #: The worker pool and its worker count: forked by the first
        #: fan-out with as many workers as it has batches (at most
        #: :attr:`jobs`), reused by every later one until :meth:`close`,
        #: and re-forked larger only when a fan-out has more batches.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    def _in_process_only(self, n_items: int) -> bool:
        return self.jobs <= 1 or n_items <= 1

    def close(self) -> None:
        """Stop the worker pool; the next fan-out forks a fresh one.

        Tasks not yet started are cancelled and the workers are joined,
        so no worker process outlives the call.  Idempotent, and safe
        before the first fan-out (there is no pool to stop yet).
        """
        pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _fan_out(
        self, fn: Callable[[SpecT], ResultT], batches: List[_Batch]
    ) -> Iterator[Tuple[int, ResultT]]:
        workers = min(self.jobs, len(batches))
        if workers > self._pool_workers:
            self.close()
        futures: list = []
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=self._context(),
                    initializer=_init_worker,
                    initargs=(list(sys.path), os.getpid()),
                )
                self._pool_workers = workers
            futures = [
                self._pool.submit(_guarded_batch, fn, batch) for batch in batches
            ]
            for future in as_completed(futures):
                for index, outcome in future.result():
                    if outcome.error is not None:
                        raise _ShardFailure(outcome)
                    yield index, outcome.value
        except self._FAILURES:
            # A dead worker breaks a pool for good: drop it, so the
            # shell's serial finish runs and the next fan-out starts over.
            self.close()
            raise
        finally:
            # A shard error or an abandoned stream (break, head of a
            # pipe, ...): cancel every not-yet-started batch.  The pool
            # stays up for the next call; only the few batches already
            # running finish, and their results are dropped.
            for future in futures:
                future.cancel()
        self.last_map_parallel = True

    @staticmethod
    def _context():
        """Prefer fork (workers inherit sys.path); else the default."""
        if "fork" in get_all_start_methods():
            return get_context("fork")
        return None

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def _init_worker(parent_sys_path: List[str], parent_pid: int) -> None:
    """Mirror the parent's sys.path and end the worker with its parent.

    Parent entries are *prepended in parent order*: appending them after
    the worker's defaults could resolve ``repro`` to a different
    (shadowing) installation than the parent's, silently mixing two
    versions of the code in one experiment.

    A pool outlives one fan-out, so an idle worker of a parent killed
    without :meth:`ParallelExecutor.close` (SIGKILL, the OOM killer)
    would wait for work forever; a daemon thread exits the worker once
    it has been re-parented.

    A forked worker also inherits the parent's signal handlers (the
    study server's graceful shutdown, say), which would keep a plain
    ``kill`` from ending it.  SIGTERM goes back to the default, so it
    ends a worker; SIGINT is ignored, so a terminal's Ctrl-C reaches the
    parent alone, and the parent's :meth:`ParallelExecutor.close` stops
    the workers.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_entries = list(parent_sys_path)
    parent_set = set(parent_entries)
    worker_only = [entry for entry in sys.path if entry not in parent_set]
    sys.path[:] = parent_entries + worker_only
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True
    ).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    """Exit this worker process within a second of *parent_pid* dying."""
    while os.getppid() == parent_pid:
        time.sleep(1.0)
    os._exit(1)
