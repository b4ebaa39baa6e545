"""Parallel orchestration determinism: the verification layer.

The contract under test (see :mod:`repro.experiments.parallel`): a
replicated sweep produces byte-identical results whether it runs
in-process, on a process pool of any size, or in an adversarially
shuffled shard order — because every (mechanism, ζtarget, replicate)
cell is a pure function of its pre-derived spec.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from typing import Callable, Sequence

import pytest

from repro.cache import wrap_with_cache
from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    ParallelExecutor,
    ParallelFallbackWarning,
    SerialExecutor,
    Transport,
    replicate_seed,
)
from repro.experiments.engine import resolve_engine
from repro.experiments.registry import mechanism_factories
from repro.experiments.runner import RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import (
    NetworkSection,
    StudySpec,
    _grid_shards,
    run_study,
)
from repro.experiments.transport import FileQueueTransport
from repro.units import DAY

TARGETS = (16.0, 48.0)
PHI_MAX = DAY / 100
METRICS = ("zeta", "phi", "rho")


def sweep_spec(**overrides) -> StudySpec:
    """The one-budget sweep every test here runs (epochs 2, seed 9)."""
    kwargs = dict(
        zeta_targets=TARGETS, phi_maxes=(PHI_MAX,), epochs=2, seed=9
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def run_sweep(executor=None, **overrides):
    """Run :func:`sweep_spec` and return its single budget's sweep."""
    study = run_study(sweep_spec(**overrides), executor=executor)
    return study.grid().budget(PHI_MAX)


class ShuffledExecutor(Transport):
    """Executes shards in a deterministic but scrambled order.

    Pairs still carry their shard index, as the Transport contract
    requires; only the *execution* order is adversarial.  Any hidden cross-cell state would surface as a
    series mismatch against the serial reference.
    """

    def __init__(self, shuffle_seed: int = 1234) -> None:
        self.shuffle_seed = shuffle_seed

    def imap(self, fn: Callable, items: Sequence):
        """Stream (index, result) pairs in the scrambled execution order."""
        items = list(items)
        order = list(range(len(items)))
        random.Random(self.shuffle_seed).shuffle(order)
        for index in order:
            yield index, fn(items[index])


@pytest.fixture(scope="module")
def base_scenario():
    return paper_roadside_scenario(phi_max_divisor=100, epochs=2, seed=9)


@pytest.fixture(scope="module")
def reference_sweep():
    """The serial (jobs=1) replicated sweep every variant must match."""
    return run_sweep(SerialExecutor(), replicates=2)


def assert_identical_series(sweep, reference):
    for metric in METRICS:
        assert sweep.series(metric) == reference.series(metric)
        assert sweep.predicted_series(metric) == reference.predicted_series(metric)


class TestSweepDeterminism:
    def test_default_executor_matches_serial(self, reference_sweep):
        sweep = run_sweep(replicates=2)
        assert_identical_series(sweep, reference_sweep)

    def test_four_workers_match_serial(self, reference_sweep):
        sweep = run_sweep(ParallelExecutor(jobs=4), replicates=2)
        assert_identical_series(sweep, reference_sweep)

    def test_shuffled_shard_order_matches_serial(self, reference_sweep):
        sweep = run_sweep(ShuffledExecutor(), replicates=2)
        assert_identical_series(sweep, reference_sweep)

    def test_single_replicate_reproduces_legacy_sweep(self):
        legacy = run_sweep()
        replicated = run_sweep(ParallelExecutor(jobs=2), replicates=1)
        assert_identical_series(replicated, legacy)

    def test_replicated_points_carry_intervals(self, reference_sweep):
        point = reference_sweep.points["SNIP-RH"][0]
        assert point.n_replicates == 2
        assert len(point.replicates) == 2
        assert point.simulated is point.replicates[0]
        interval = point.interval("zeta")
        assert interval.replications == 2
        assert interval.low <= point.zeta <= interval.high
        assert reference_sweep.n_replicates == 2

    def test_explicit_replicate_seeds(self):
        explicit = run_sweep(replicate_seeds=(9, 21))
        assert explicit.n_replicates == 2
        # Replicate 0 with seed 9 is exactly the legacy single run.
        legacy = run_sweep()
        for mechanism, column in explicit.points.items():
            for target_index, point in enumerate(column):
                legacy_point = legacy.points[mechanism][target_index]
                assert point.replicates[0].mean_zeta == legacy_point.zeta

    def test_unpicklable_factory_falls_back_serially(
        self, base_scenario, reference_sweep
    ):
        bound = {"count": 0}

        def counting_rh(scenario):  # closes over `bound`: not picklable
            bound["count"] += 1
            return mechanism_factories.resolve("SNIP-RH")(scenario)

        def run_cell(spec):  # ships the closure factory with every shard
            return resolve_engine(spec.engine).run(
                spec.scenario, counting_rh(spec.scenario)
            )

        seeds = sweep_spec(replicates=2).resolved_seeds()
        specs = [
            RunSpec(
                scenario=base_scenario.with_target(target).with_seed(seed),
                mechanism="SNIP-RH",
                replicate=index,
            )
            for target in TARGETS
            for index, seed in enumerate(seeds)
        ]
        pool = ParallelExecutor(jobs=4)
        with pytest.warns(ParallelFallbackWarning, match="not picklable"):
            results = pool.map(run_cell, specs)
        # Ran in-process (the closure observed every cell) and still
        # produced every cell, equal to the registry-resolved study.
        assert not pool.last_map_parallel
        assert bound["count"] == len(TARGETS) * 2
        expected = [
            run.mean_zeta
            for point in reference_sweep.points["SNIP-RH"]
            for run in point.replicates
        ]
        assert [result.mean_zeta for result in results] == expected


class TestExecutors:
    def test_parallel_executor_orders_results(self):
        pool = ParallelExecutor(jobs=4)
        out = pool.map(_square, list(range(10)))
        assert out == [n * n for n in range(10)]
        assert pool.last_map_parallel

    def test_fallback_is_observable(self):
        pool = ParallelExecutor(jobs=4)
        bound = 1
        # The degradation must be loud (satellite bugfix): a warning
        # naming the cause, plus the last_map_parallel diagnostic.
        with pytest.warns(ParallelFallbackWarning, match="not picklable"):
            out = pool.map(lambda n: n + bound, [1, 2, 3])  # unpicklable fn
        assert out == [2, 3, 4]
        assert not pool.last_map_parallel

    def test_trivial_workloads_stay_serial_without_warning(self):
        pool = ParallelExecutor(jobs=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            assert pool.map(_square, [7]) == [49]
            assert ParallelExecutor(jobs=1).map(_square, [2, 3]) == [4, 9]
        assert not pool.last_map_parallel

    def test_serial_executor_orders_results(self):
        out = SerialExecutor().map(_square, list(range(10)))
        assert out == [n * n for n in range(10)]

    def test_jobs_default_positive(self):
        assert ParallelExecutor().jobs >= 1

    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)

    def test_execute_run_spec_unknown_mechanism(self, base_scenario):
        spec = RunSpec(scenario=base_scenario, mechanism="SNIP-??")
        with pytest.raises(ConfigurationError):
            execute_run_spec(spec)


def _square(n: int) -> int:
    return n * n


_STARTED: list = []


def _record_start(n: int) -> int:
    """Module-level shard that records that it started (in-process)."""
    _STARTED.append(n)
    return n


def _record_and_maybe_raise(item):
    """Shard that logs '<pid> <n>' to a file and explodes on n == 3."""
    path, n = item
    with open(path, "a") as handle:
        handle.write(f"{os.getpid()} {n}\n")
    if n == 3:
        raise ValueError("shard 3 exploded")
    return n


class TestShardErrors:
    """The headline bugfix: worker exceptions are not transport failures.

    A shard function raising inside a worker used to be swallowed by the
    fallback machinery, triggering a full serial re-run of the entire
    workload that doubled wall-clock and then re-raised anyway.  Now it
    propagates exactly once, immediately, with no re-execution.
    """

    def test_worker_exception_propagates_without_serial_rerun(self, tmp_path):
        log = tmp_path / "calls.log"
        items = [(str(log), n) for n in range(6)]
        pool = ParallelExecutor(jobs=4)
        with pytest.raises(ValueError, match="shard 3 exploded"):
            pool.map(_record_and_maybe_raise, items)
        lines = log.read_text().splitlines()
        executed_pids = {int(line.split()[0]) for line in lines}
        # No shard ever ran in the parent: there was no serial fallback.
        assert os.getpid() not in executed_pids
        # And no shard ran twice: completed work was not re-executed.
        counts = Counter(int(line.split()[1]) for line in lines)
        assert all(count == 1 for count in counts.values())
        # Shard 3 did run (the failure is real, not a transport artifact).
        assert 3 in counts

    def test_worker_exception_raised_for_typeerror(self):
        # TypeError was previously treated as a transport failure and
        # re-run serially; from a worker it must propagate as-is.
        pool = ParallelExecutor(jobs=2)
        with pytest.raises(TypeError):
            pool.map(_square, ["a", "b"])

    def test_serial_path_raises_identically(self):
        with pytest.raises(ValueError, match="shard 3 exploded"):
            SerialExecutor().map(
                _record_and_maybe_raise, [(os.devnull, 3)]
            )


class TestStreaming:
    """Transport.imap yields (index, result) pairs as shards complete."""

    def test_parallel_imap_covers_all_indices(self):
        pool = ParallelExecutor(jobs=4)
        pairs = list(pool.imap(_square, list(range(8))))
        assert sorted(pairs) == [(n, n * n) for n in range(8)]
        assert pool.last_map_parallel

    def test_serial_executor_streams_in_order(self):
        assert list(SerialExecutor().imap(_square, [3, 1])) == [(0, 9), (1, 1)]

    def test_imap_trivial_workload_is_serial(self):
        pool = ParallelExecutor(jobs=4)
        assert list(pool.imap(_square, [5])) == [(0, 25)]
        assert not pool.last_map_parallel

    def test_in_process_path_streams_one_shard_at_a_time(self):
        # jobs=1 with "auto" batching used to run a whole batch (10 of
        # 40 shards) before the first pair; a consumer (cache store,
        # cancellation check) must see each result before the next
        # shard starts.
        del _STARTED[:]
        stream = ParallelExecutor(jobs=1, batch_size="auto").imap(
            _record_start, list(range(40))
        )
        assert next(stream) == (0, 0)
        assert _STARTED == [0]
        assert next(stream) == (1, 1)
        assert _STARTED == [0, 1]
        stream.close()

    def test_imap_fallback_still_yields_every_pair(self):
        pool = ParallelExecutor(jobs=4)
        bound = 2
        with pytest.warns(ParallelFallbackWarning):
            pairs = list(pool.imap(lambda n: n + bound, [1, 2, 3]))
        assert pairs == [(0, 3), (1, 4), (2, 5)]
        assert not pool.last_map_parallel


class TestBatching:
    """Satellite: adaptive shard batching amortizes per-task pickling.

    Batching changes only the transport granularity; reassembly is by
    original shard index, so every result must stay byte-identical to
    the unbatched path, including error propagation.
    """

    def test_explicit_batch_matches_serial(self):
        pool = ParallelExecutor(jobs=4, batch_size=3)
        assert pool.map(_square, list(range(11))) == [n * n for n in range(11)]
        assert pool.last_map_parallel

    def test_auto_batch_matches_serial(self):
        pool = ParallelExecutor(jobs=2, batch_size="auto")
        assert pool.map(_square, list(range(40))) == [n * n for n in range(40)]
        assert pool.last_map_parallel

    def test_imap_with_batches_covers_all_indices(self):
        pool = ParallelExecutor(jobs=2, batch_size=4)
        pairs = list(pool.imap(_square, list(range(10))))
        assert sorted(pairs) == [(n, n * n) for n in range(10)]

    def test_auto_heuristic_scales_with_workload(self):
        # A shard with no scenario counts one cell-epoch: a cheap
        # workload ships one near-equal contiguous piece per worker, a
        # big one jobs pieces per AUTO_BATCH_EPOCHS cell-epochs per
        # worker.
        pool = ParallelExecutor(jobs=2, batch_size="auto")
        assert batch_sizes(pool, list(range(1))) == [1]
        assert batch_sizes(pool, list(range(7))) == [3, 4]
        assert batch_sizes(pool, list(range(80))) == [40, 40]
        assert batch_sizes(pool, list(range(600))) == [100] * 6
        assert batch_sizes(ParallelExecutor(jobs=3, batch_size="auto"),
                           list(range(2))) == [1, 1]

    def test_int_batch_size_cuts_contiguous_chunks(self):
        _, shards = _grid_shards(service_shaped_spec())
        batches = ParallelExecutor(jobs=2, batch_size=5)._batches(shards)
        assert [len(batch) for batch in batches] == [5, 5, 2]
        assert [index for batch in batches for index, _ in batch] == list(
            range(12)
        )

    def test_auto_ships_a_one_seed_two_budget_study_as_two_tasks(self):
        _, shards = _grid_shards(service_shaped_spec())
        assert len(shards) == 12
        batches = ParallelExecutor(jobs=2, batch_size="auto")._batches(shards)
        assert [len(batch) for batch in batches] == [6, 6]

    def test_auto_cuts_the_paper_grid_into_full_rounds(self):
        # 108 cells x 14 epochs = 1,512 cell-epochs: 6 rounds of 2 on 2
        # jobs, 3 rounds of 4 on 4 jobs, 2 rounds of 8 on 8 jobs, so no
        # round leaves a worker idle.
        _, shards = _grid_shards(
            StudySpec(engines=("vector",), replicates=3, epochs=14)
        )
        assert len(shards) == 108
        for jobs in (2, 4):
            batches = ParallelExecutor(jobs=jobs, batch_size="auto")._batches(
                shards
            )
            assert [len(batch) for batch in batches] == [9] * 12
            indices = [index for batch in batches for index, _ in batch]
            assert indices == list(range(108))
        sizes = batch_sizes(ParallelExecutor(jobs=8, batch_size="auto"), shards)
        assert len(sizes) == 16 and set(sizes) == {6, 7}
        # A 2-epoch grid is cheap: one batch per worker.
        _, shards = _grid_shards(
            StudySpec(engines=("vector",), replicates=3, epochs=2)
        )
        batches = ParallelExecutor(jobs=2, batch_size="auto")._batches(shards)
        assert [len(batch) for batch in batches] == [54, 54]

    def test_batched_sweep_is_byte_identical(self, reference_sweep):
        sweep = run_sweep(
            ParallelExecutor(jobs=2, batch_size="auto"), replicates=2
        )
        assert_identical_series(sweep, reference_sweep)

    def test_batched_shard_error_propagates_without_serial_rerun(self, tmp_path):
        log = tmp_path / "calls.log"
        items = [(str(log), n) for n in range(6)]
        pool = ParallelExecutor(jobs=2, batch_size=2)
        with pytest.raises(ValueError, match="shard 3 exploded"):
            pool.map(_record_and_maybe_raise, items)
        lines = log.read_text().splitlines()
        assert os.getpid() not in {int(line.split()[0]) for line in lines}
        counts = Counter(int(line.split()[1]) for line in lines)
        assert all(count == 1 for count in counts.values())
        assert 3 in counts

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(batch_size=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(batch_size="huge")


class TestAutoBatchingEndToEnd:
    """Auto batching changes task shapes, never a result byte."""

    @staticmethod
    def spec() -> StudySpec:
        """2 scenarios (one with options) x 3 seeds x 2 budgets, vector."""
        return StudySpec(
            name="auto-batching",
            zeta_targets=(16.0,),
            epochs=2,
            seed=5,
            engines=("vector",),
            replicates=3,
            scenarios=(
                "paper-roadside",
                {"name": "diurnal", "options": {"ratio": 12.0}},
            ),
            with_predictions=True,
        )

    def test_every_transport_and_a_warm_cache_give_the_same_bytes(
        self, tmp_path
    ):
        spec = self.spec()
        reference = run_study(spec, executor=SerialExecutor()).to_json()
        pool = ParallelExecutor(jobs=2, batch_size="auto")
        cached = wrap_with_cache(SerialExecutor(), str(tmp_path / "cache"))
        try:
            with warnings.catch_warnings():
                # A batch that did not cross the pool would degrade it
                # to in-process execution under this warning.
                warnings.simplefilter("error", ParallelFallbackWarning)
                pooled = run_study(spec, executor=pool)
            assert pool.last_map_parallel
            queued = run_study(
                spec, executor=FileQueueTransport(workers=0, jobs=2)
            )
            cold = run_study(spec, executor=cached)
            warm = run_study(spec, executor=cached)
        finally:
            pool.close()
        assert warm.cells_cached == spec.total_runs == 36
        for study in (pooled, queued, cold, warm):
            assert study.to_json() == reference


def batch_sizes(transport, items) -> list:
    """The shard count of each batch *transport* ships *items* as."""
    return [len(batch) for batch in transport._batches(items)]


def service_shaped_spec(**overrides) -> StudySpec:
    """12 vector cells: 3 mechanisms x 2 targets x 2 budgets x 1 seed."""
    kwargs = dict(
        zeta_targets=(16.0, 24.0), epochs=2, seed=11, engines=("vector",)
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def fleet_spec() -> StudySpec:
    """A three-node commuter fleet (one day, one budget)."""
    return StudySpec(
        zeta_targets=(16.0,),
        phi_maxes=(PHI_MAX,),
        epochs=1,
        seed=9,
        network=NetworkSection(nodes=3, commuters=20),
    )


def _pid_once_two_workers_ran(directory: str) -> int:
    """Shard returning its worker's pid once two workers have checked in.

    Each shard leaves its pid in *directory* and waits (up to 10 s) for a
    second pid, so a two-worker pool must run shards on both workers.
    """
    open(os.path.join(directory, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 10
    while len(os.listdir(directory)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid()


def _square_outside(item) -> int:
    """Square ``item[1]``, killing any worker process that runs it."""
    parent_pid, n = item
    if os.getpid() != parent_pid:
        os._exit(1)
    return n * n


def _new_children(before) -> set:
    """Live multiprocessing children not in *before* (reaps the dead)."""
    return set(multiprocessing.active_children()) - set(before)


#: A parent that forks a two-worker pool, prints the worker pids, and
#: idles (until the test kills it).
_ORPHAN_SCRIPT = """
import multiprocessing, time
from repro.experiments.parallel import ParallelExecutor
pool = ParallelExecutor(jobs=2)
assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
time.sleep(60)
"""


#: A parent with its own SIGTERM handler (as the study server installs)
#: that forks a two-worker pool, prints the worker pids, and idles.
_HANDLER_SCRIPT = """
import multiprocessing, signal, time
from repro.experiments.parallel import ParallelExecutor
signal.signal(signal.SIGTERM, lambda signum, frame: None)
pool = ParallelExecutor(jobs=2)
assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a live, non-zombie process (reads /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class TestPoolLifetime:
    """A ParallelExecutor's workers live until close(), not one imap."""

    def test_one_pool_serves_two_studies(self, tmp_path):
        pool = ParallelExecutor(jobs=2)
        specs = (sweep_spec(), sweep_spec(seed=10, mechanisms=("SNIP-AT",)))
        pids = []
        try:
            for number, spec in enumerate(specs):
                directory = tmp_path / f"pids-{number}"
                directory.mkdir()
                pids.append(
                    set(pool.map(_pid_once_two_workers_ran, [str(directory)] * 4))
                )
                pooled = run_study(spec, executor=pool)
                assert pool.last_map_parallel
                assert pooled.to_json() == run_study(spec).to_json()
        finally:
            pool.close()
        assert len(pids[0]) == 2 and os.getpid() not in pids[0]
        assert pids[1] == pids[0]

    def test_shard_error_keeps_the_pool(self, tmp_path):
        log = tmp_path / "calls.log"
        pool = ParallelExecutor(jobs=2)
        try:
            with pytest.raises(ValueError, match="shard 3 exploded"):
                pool.map(
                    _record_and_maybe_raise, [(str(log), n) for n in range(6)]
                )
            assert not pool.last_map_parallel
            with warnings.catch_warnings():
                warnings.simplefilter("error", ParallelFallbackWarning)
                assert pool.map(_square, list(range(6))) == [
                    n * n for n in range(6)
                ]
            assert pool.last_map_parallel
        finally:
            pool.close()
        counts = Counter(int(line.split()[1]) for line in log.read_text().splitlines())
        assert counts[3] == 1

    def test_dead_worker_falls_back_then_next_call_forks_again(self):
        pool = ParallelExecutor(jobs=2)
        items = [(os.getpid(), n) for n in range(6)]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert pool.map(_square_outside, items) == [
                    n * n for n in range(6)
                ]
            fallbacks = [
                w for w in caught if issubclass(w.category, ParallelFallbackWarning)
            ]
            assert len(fallbacks) == 1
            assert "BrokenProcessPool" in str(fallbacks[0].message)
            assert not pool.last_map_parallel
            with warnings.catch_warnings():
                warnings.simplefilter("error", ParallelFallbackWarning)
                assert pool.map(_square, list(range(6))) == [
                    n * n for n in range(6)
                ]
            assert pool.last_map_parallel
        finally:
            pool.close()

    def test_close_joins_the_workers(self):
        before = multiprocessing.active_children()
        pool = ParallelExecutor(jobs=2)
        pool.map(_square, list(range(4)))
        assert len(_new_children(before)) == 2
        pool.close()
        pool.close()  # idempotent
        assert not _new_children(before)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_the_parent_is_killed(self):
        # An idle pool outlives its map; a parent killed without close()
        # must not leave its workers waiting for work forever.
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2 and parent.pid not in workers
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 15
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process state from /proc"
    )
    def test_sigterm_ends_a_worker_whose_parent_handles_it(self):
        parent = subprocess.Popen(
            [sys.executable, "-c", _HANDLER_SCRIPT],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2 and parent.pid not in workers
            os.kill(workers[0], signal.SIGTERM)
            deadline = time.monotonic() + 10
            while _running(workers[0]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(workers[0])
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()

    def test_first_pool_has_one_worker_per_batch_and_grows(self):
        before = multiprocessing.active_children()
        pool = ParallelExecutor(jobs=3)
        try:
            assert pool.map(_square, [1, 2]) == [1, 4]
            small = _new_children(before)
            assert len(small) == 2
            assert pool.map(_square, list(range(6))) == [n * n for n in range(6)]
            grown = _new_children(before)
            assert len(grown) == 3 and not grown & small
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert _new_children(before) == grown  # fewer batches: same pool
        finally:
            pool.close()
        assert not _new_children(before)

    def test_run_study_closes_the_pool_it_builds(self):
        before = multiprocessing.active_children()
        alive = []

        def progress(shard, result, completed, total) -> None:
            alive.append(len(_new_children(before)))

        run_study(sweep_spec(transport="pool", jobs=2), progress=progress)
        assert max(alive) == 2  # the study did run on a two-worker pool
        assert not _new_children(before)

    def test_run_study_leaves_a_passed_executor_open(self):
        before = multiprocessing.active_children()
        pool = ParallelExecutor(jobs=2)
        try:
            run_study(sweep_spec(), executor=pool)
            assert pool.last_map_parallel
            assert len(_new_children(before)) == 2
        finally:
            pool.close()
        assert not _new_children(before)


class TestNetworkFanOut:
    def test_parallel_fleet_matches_serial(self):
        serial = run_study(fleet_spec()).network
        pool = ParallelExecutor(jobs=3)
        parallel = run_study(fleet_spec(), executor=pool).network
        assert pool.last_map_parallel
        assert sorted(serial.outcomes) == sorted(parallel.outcomes)
        for node_id, outcome in serial.outcomes.items():
            other = parallel.outcomes[node_id]
            assert outcome.zeta == other.zeta
            assert outcome.phi == other.phi
            assert outcome.delivery_ratio == other.delivery_ratio
        assert serial.fleet_rho == parallel.fleet_rho


class ImapOnlyTransport:
    """A duck-typed transport with ``imap`` and nothing else.

    Yields in reverse order, so a consumer that ignored the shard index
    would assemble a scrambled result.
    """

    def imap(self, fn, items):
        items = list(items)
        for index in reversed(range(len(items))):
            yield index, fn(items[index])


class TestImapOnlyTransport:
    """Every consumer needs only ``imap``: no ``map`` fallback anywhere."""

    def test_run_study_accepts_imap_only(self):
        spec = sweep_spec(mechanisms=("SNIP-AT",), replicate_seeds=(1, 2, 3))
        serial = run_study(spec)
        streamed = run_study(spec, executor=ImapOnlyTransport())
        assert streamed.to_json() == serial.to_json()
        (point, _) = streamed.grid().budget(PHI_MAX).points["SNIP-AT"]
        assert [run.scenario.seed for run in point.replicates] == [1, 2, 3]

    def test_network_runner_accepts_imap_only(self):
        serial = run_study(fleet_spec())
        streamed = run_study(fleet_spec(), executor=ImapOnlyTransport())
        assert streamed.to_json() == serial.to_json()


class TestReplicateSeeds:
    def test_replicate_zero_is_base_seed(self):
        assert replicate_seed(123, 0) == 123

    def test_later_replicates_differ(self):
        seeds = [replicate_seed(123, r) for r in range(32)]
        assert len(set(seeds)) == 32

    def test_negative_replicate_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate_seed(1, -1)

    def test_conflicting_replicate_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_spec(replicates=3, replicate_seeds=(1, 2))
