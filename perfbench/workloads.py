"""The benchmark's workloads: two declared in ``BENCHMARK.json``
(``paper-grid``, ``service-mixed``) and two extra ones run by name
(see ``harness.EXTRA_WORKLOADS``).

Each is a closed loop driven from this one process, pinned to the
``vector`` engine (``fast`` appears only as the correctness oracle),
and never runs more than ``nproc`` busy processes:

* ``paper-grid`` — the full Fig. 7/8 study, serial, no cache.
* ``trace-replay`` — the ``trace-driven`` scenario over a synthesized,
  contact-dense CSV, serial, no cache.
* ``grid-file-queue`` — ``paper-grid`` over the ``file-queue``
  transport.
* ``service-mixed`` — an in-process study server (pool transport,
  pinned cell cache) fed alternating cold and warm 12-cell studies.

A workload object owns its inputs and set-up, runs one timed
repetition at a time, checks its outputs against references outside
the timed regions, and runs traced repetitions through
:mod:`replay`.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    SALT_INPUT,
    SALT_SETUP,
    SALT_TIMED,
    SALT_TRACED,
    WORKLOAD_NAMES,
    BenchError,
    HostClock,
    Tracer,
    fresh_seeds,
)
from replay import Replay, replay_cached_cells, replay_cells, traced_study
from repro.cache import CellCache, wrap_with_cache
from repro.experiments.engine import resolve_engine
from repro.experiments.parallel import available_cpus
from repro.experiments.registry import PAPER_MECHANISMS, mechanism_factories
from repro.experiments.scenario import PAPER_ZETA_TARGETS
from repro.experiments.spec import PAPER_PHI_MAXES, StudySpec, run_study
from repro.experiments.transport import resolve_transport
from repro.service.app import make_server
from repro.service.client import ServiceClient
from repro.units import DAY

#: vector-vs-fast tolerance, relative to max(1, |value|).  Not 0.0: a
#: kernel that reassociates float sums (the min-plus probe book) moves
#: the deltas to about 1e-12.
ORACLE_TOLERANCE = 1e-9


@dataclass
class RepSample:
    """One timed repetition."""

    cells: int
    #: Wall seconds of the whole repetition.
    wall: float
    #: Cells per wall second, one sample per study (grid) or per
    #: cold/warm pair (service), so a short stall moves one sample, not
    #: the run.
    throughput: List[float]
    #: Per-study wall latencies from issuing the study to holding its
    #: artifact bytes, by kind (``cold`` = every cell computed); entry
    #: *i* of each kind belongs to throughput sample *i*.
    latencies: Dict[str, List[float]]
    #: ``HostClock.scale()`` per throughput sample.
    scales: List[float]
    #: What the traced run's overhead is measured against.
    reference_s: float
    studies: int = 1
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    failed_units: int = 0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_TOLERANCE * max(1.0, abs(a), abs(b))


def _probed_per_epoch(result) -> float:
    return result.metrics.total_probed / result.metrics.epoch_count


def _without(document: Dict[str, Any], section: str, key: str) -> Dict[str, Any]:
    trimmed = dict(document)
    trimmed[section] = {k: v for k, v in document[section].items() if k != key}
    return trimmed


# ----------------------------------------------------------------------
# grid workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridSize:
    targets: Tuple[float, ...]
    replicates: int
    epochs: int
    #: Rows of the synthesized one-day trace file (0: no file).
    trace_rows: int = 0


GRID_SIZES = {
    "paper-grid": {
        "full": GridSize(PAPER_ZETA_TARGETS, 3, 14),
        "tiny": GridSize((16.0, 32.0), 1, 2),
    },
    "grid-file-queue": {
        "full": GridSize(PAPER_ZETA_TARGETS, 3, 14),
        "tiny": GridSize((16.0, 32.0), 1, 2),
    },
    "trace-replay": {
        "full": GridSize(PAPER_ZETA_TARGETS[::2], 3, 7, trace_rows=2_880),
        "tiny": GridSize((16.0,), 1, 2, trace_rows=500),
    },
}


def write_trace_csv(path: str, rows: int, seed: int) -> None:
    """A sorted one-day CSV trace of *rows* contacts, 1-4 s long.

    Starts are jittered around an even spacing and end before midnight,
    so ``repeat_every`` = one day tiles the file once per one-day epoch
    with no contact clipped or dropped: a study of E epochs replays
    exactly ``rows * E`` contacts.
    """
    rng = np.random.default_rng(fresh_seeds(seed, 0, 1, SALT_INPUT)[0])
    gap = DAY / (rows + 1)
    starts = np.cumsum(rng.uniform(0.5 * gap, 1.5 * gap, rows))
    starts *= (DAY - 2 * gap) / starts[-1]
    ends = starts + rng.uniform(1.0, 4.0, rows)
    lines = [
        f"{start:.3f},{end:.3f},m{index % 97}"
        for index, (start, end) in enumerate(zip(starts.tolist(), ends.tolist()))
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("start,end,mobile_id\n")
        handle.write("\n".join(lines))
        handle.write("\n")


class GridWorkload:
    """One Fig. 7/8-shaped study per repetition, on fresh seeds."""

    def __init__(self, name: str, seed: int, size: str, input_path: Optional[str]) -> None:
        self.name = name
        self.seed = seed
        self.size = GRID_SIZES[name][size]
        self.input_path = input_path
        self.nproc = available_cpus()
        self.first: Optional[Tuple[StudySpec, Any, str]] = None

    # -- inputs and set-up ------------------------------------------------
    def prepare_inputs(self, scratch: str) -> None:
        if self.size.trace_rows and self.input_path is None:
            self.input_path = os.path.join(scratch, "contacts.csv")
            write_trace_csv(self.input_path, self.size.trace_rows, self.seed)

    def input_args(self) -> List[str]:
        return ["--input", self.input_path] if self.input_path else []

    @property
    def units_per_rep(self) -> int:
        """Cells attempted per repetition."""
        return self.spec([0] * self.size.replicates).total_runs

    def input_sizes(self) -> Dict[str, Any]:
        spec = self.spec([0] * self.size.replicates)
        sizes = {
            "cells_per_study": spec.total_runs,
            "epochs": spec.epochs,
            "zeta_targets": len(spec.zeta_targets),
            "phi_maxes": len(spec.phi_maxes),
            "replicates": self.size.replicates,
            "transport": spec.resolved_transport,
            "transport_options": dict(spec.transport_options),
        }
        if self.input_path:
            sizes["trace_rows"] = self.size.trace_rows
            sizes["trace_bytes"] = os.path.getsize(self.input_path)
            sizes["contacts_per_trace"] = self.size.trace_rows * spec.epochs
        return sizes

    def spec(self, seeds: Sequence[int]) -> StudySpec:
        scenarios: Tuple[Any, ...] = ("paper-roadside",)
        if self.size.trace_rows:
            scenarios = ({
                "name": "trace-driven",
                "options": {"path": self.input_path, "repeat_every": DAY},
            },)
        execution: Dict[str, Any] = {}
        if self.name == "grid-file-queue":
            # Spawned workers plus the self-processing coordinator
            # stay within nproc busy processes.
            execution = {
                "jobs": self.nproc,
                "transport": "file-queue",
                "transport_options": {"workers": max(self.nproc - 1, 0)},
            }
        return StudySpec(
            name=self.name,
            zeta_targets=self.size.targets,
            phi_maxes=PAPER_PHI_MAXES,
            epochs=self.size.epochs,
            seed=int(seeds[0]),
            mechanisms=PAPER_MECHANISMS,
            engines=("vector",),
            replicates=len(seeds),
            replicate_seeds=tuple(int(seed) for seed in seeds),
            scenarios=scenarios,
            with_predictions=True,
            **execution,
        )

    def setup(self) -> None:
        """Resolve every registry name and run one untimed warm-up cell."""
        spec = self.spec(fresh_seeds(self.seed, 0, 1, SALT_SETUP))
        spec.validate_registry_names()
        warm_up = dataclasses.replace(
            spec,
            name="warm-up",
            mechanisms=("SNIP-RH",),
            zeta_targets=spec.zeta_targets[:1],
            phi_maxes=spec.phi_maxes[:1],
            jobs=1,
            transport=None,
            transport_options={},
        )
        run_study(warm_up)

    def close(self) -> None:
        self.first = None

    # -- timed ------------------------------------------------------------
    def timed_rep(self, rep: int, clock: HostClock) -> RepSample:
        spec = self.spec(fresh_seeds(self.seed, rep, self.size.replicates, SALT_TIMED))
        gc.collect()
        start = time.perf_counter()
        result = run_study(spec, executor=spec.build_transport())
        ran = time.perf_counter()
        text = result.to_json()
        done = time.perf_counter()
        scale = clock.scale()
        if self.first is None:
            self.first = (spec, result, text)
        return RepSample(
            cells=spec.total_runs,
            wall=done - start,
            throughput=[spec.total_runs / (ran - start)],
            latencies={"cold": [done - start]},
            scales=[scale],
            reference_s=done - start,
        )

    def checks(self) -> Tuple[int, List[str], int]:
        """Check the first repetition's outputs against references.

        Returns ``(checks run, failure messages, cells failed)``.
        """
        spec, result, text = self.first
        failures: List[str] = []
        failed_cells = 0
        checks = 0
        fast = resolve_engine("fast")
        n_phi = len(spec.phi_maxes)
        n_targets = len(spec.zeta_targets)
        for index, mechanism in enumerate(spec.mechanisms):
            phi_max = spec.phi_maxes[index % n_phi]
            target_index = (2 * index) % n_targets
            replicate = index % spec.n_replicates
            point = result.grid().budget(phi_max).points[mechanism][target_index]
            run = point.replicates[replicate]
            oracle = fast.run(run.scenario, mechanism_factories.resolve(mechanism)(run.scenario))
            checks += 1
            mismatched = [
                f"{metric} {ours!r} vs fast {theirs!r}"
                for metric, ours, theirs in (
                    ("mean_zeta", run.mean_zeta, oracle.mean_zeta),
                    ("mean_phi", run.mean_phi, oracle.mean_phi),
                    ("probed_per_epoch", _probed_per_epoch(run), _probed_per_epoch(oracle)),
                )
                if not _close(ours, theirs)
            ]
            if mismatched:
                failed_cells += 1
                failures.append(
                    f"vector != fast on {mechanism} zeta_target="
                    f"{spec.zeta_targets[target_index]:g} phi_max={phi_max:g} "
                    f"replicate {replicate}: " + "; ".join(mismatched)
                )
        if spec.resolved_transport != "serial":
            serial_spec = dataclasses.replace(
                spec, jobs=1, transport="serial", transport_options={}
            )
            serial = json.loads(run_study(serial_spec).to_json())
            checks += 1
            if _without(json.loads(text), "study", "execution") != _without(
                serial, "study", "execution"
            ):
                failed_cells += spec.total_runs
                failures.append(
                    f"{spec.resolved_transport} artifact differs from the "
                    "serial artifact for the same seeds (study.execution ignored)"
                )
        return checks, failures, failed_cells

    # -- traced -----------------------------------------------------------
    def traced_rep(self, rep: int, tracer: Tracer) -> Tuple[float, float]:
        """Replay + traced study on fresh seeds.

        Returns ``(traced wall, reference)`` where the reference is the
        traced study's wall time, comparable to ``RepSample.reference_s``.
        """
        spec = self.spec(fresh_seeds(self.seed, rep, self.size.replicates, SALT_TRACED))
        gc.collect()
        start = time.perf_counter()
        replay_cells(spec, Replay(tracer))
        study_s = traced_study(spec, tracer, spec.build_transport())
        return time.perf_counter() - start, study_s


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceSize:
    #: cold/warm study pairs per repetition (two requests each).
    pairs: int
    epochs: int
    #: Pairs between two ``HostClock`` readings.
    pairs_per_scale: int


SERVICE_SIZES = {
    "full": ServiceSize(pairs=25, epochs=2, pairs_per_scale=5),
    "tiny": ServiceSize(pairs=2, epochs=1, pairs_per_scale=1),
}


@dataclass
class Request:
    """One study's round trip, client side."""

    latency: float
    state: str
    text: Optional[str]
    cells: int
    cached: int


def request(client: ServiceClient, spec: StudySpec, tracer: Optional[Tracer] = None) -> Request:
    """POST a study, follow its SSE stream to the terminal event, GET
    the artifact bytes.  With *tracer*, record the four client-side
    spans of the round trip."""
    start = time.perf_counter()
    record = client.submit(spec)
    submitted = time.perf_counter()
    first: Optional[float] = None
    cells = cached = 0
    state = "missing"
    for event in client.stream(record["id"]):
        if first is None:
            first = time.perf_counter()
        if event.get("event") == "cell":
            cells += 1
            cached += bool(event.get("cached"))
        state = event.get("event", state)
    streamed = time.perf_counter()
    text = client.result_text(record["id"]) if state == "done" else None
    end = time.perf_counter()
    if tracer is not None:
        first = streamed if first is None else first
        tracer.record("service.submit_s", start, submitted)
        tracer.record("service.queue_wait_s", submitted, first)
        tracer.record("service.stream_s", first, streamed)
        tracer.record("service.result_s", streamed, end)
    return Request(end - start, state, text, cells, cached)


class ServiceWorkload:
    """Alternating cold and warm studies against one study server."""

    name = "service-mixed"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SERVICE_SIZES[size]
        self.nproc = available_cpus()
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[ServiceClient] = None

    def prepare_inputs(self, scratch: str) -> None:
        """Studies are generated per repetition; no files."""

    def input_args(self) -> List[str]:
        return []

    @property
    def units_per_rep(self) -> int:
        """Studies attempted per repetition."""
        return 2 * self.size.pairs

    def input_sizes(self) -> Dict[str, Any]:
        return {
            "requests_per_rep": 2 * self.size.pairs,
            "cells_per_study": self.study("sizing", 1).total_runs,
            "epochs": self.size.epochs,
            "transport": "pool",
            "jobs": self.nproc,
        }

    def study(self, name: str, seed: int) -> StudySpec:
        return StudySpec(
            name=name,
            zeta_targets=(16.0, 32.0),
            phi_maxes=PAPER_PHI_MAXES,
            epochs=self.size.epochs,
            seed=int(seed),
            mechanisms=PAPER_MECHANISMS,
            engines=("vector",),
            replicates=1,
            jobs=self.nproc,
        )

    def setup(self) -> None:
        """Start the server (store recovery included), warm one study."""
        store = tempfile.mkdtemp(prefix="store-")
        cache = tempfile.mkdtemp(prefix="cache-")
        self.server = make_server(store, transport="pool", cache=cache)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="perfbench-server",
            daemon=True,
        )
        self.thread.start()
        self.client = ServiceClient(self.server.url, timeout=120.0)
        warm_up = dataclasses.replace(
            self.study("warm-up", fresh_seeds(self.seed, 0, 1, SALT_SETUP)[0]),
            mechanisms=("SNIP-RH",),
            zeta_targets=(16.0,),
            phi_maxes=PAPER_PHI_MAXES[:1],
        )
        outcome = request(self.client, warm_up)
        if outcome.state != "done":
            raise BenchError(f"warm-up study ended {outcome.state!r}")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.thread is not None:
            self.thread.join(timeout=30)
            self.thread = None

    def _pairs(self, rep: int, salt: int) -> List[Tuple[StudySpec, StudySpec]]:
        pairs = []
        for index, seed in enumerate(fresh_seeds(self.seed, rep, self.size.pairs, salt)):
            cold = self.study(f"cold-{rep}-{index}", seed)
            pairs.append((cold, dataclasses.replace(cold, name=f"warm-{rep}-{index}")))
        return pairs

    def timed_rep(self, rep: int, clock: HostClock) -> RepSample:
        pairs = self._pairs(rep, SALT_TIMED)
        outcomes: List[Tuple[StudySpec, Request, Request]] = []
        scales: List[float] = []
        # The requests' wall time, without the clock's reference loops.
        wall = 0.0
        gc.collect()
        for first in range(0, len(pairs), self.size.pairs_per_scale):
            group = pairs[first:first + self.size.pairs_per_scale]
            start = time.perf_counter()
            for cold, warm in group:
                outcomes.append((cold, request(self.client, cold), request(self.client, warm)))
            wall += time.perf_counter() - start
            scales += [clock.scale()] * len(group)
        sample = RepSample(
            cells=sum(2 * cold.total_runs for cold, _ in pairs),
            wall=wall,
            throughput=[
                2 * spec.total_runs / (cold.latency + warm.latency)
                for spec, cold, warm in outcomes
            ],
            latencies={
                "cold": [c.latency for _, c, _ in outcomes],
                "warm": [w.latency for _, _, w in outcomes],
            },
            scales=scales,
            reference_s=wall,
            studies=2 * len(pairs),
            checks=len(pairs),
        )
        for spec, cold, warm in outcomes:
            self._check_pair(spec, cold, warm, sample)
        return sample

    @staticmethod
    def _check_pair(spec: StudySpec, cold: Request, warm: Request, sample: RepSample) -> None:
        total = spec.total_runs
        problems = []
        if cold.state != "done" or warm.state != "done":
            problems.append(f"ended {cold.state!r}/{warm.state!r}")
        else:
            if cold.cached or cold.cells != total:
                problems.append(f"cold study hit the cache ({cold.cached}/{cold.cells} cells)")
            if warm.cached != total:
                problems.append(f"warm study computed {total - warm.cached} of {total} cells")
            if _without(json.loads(warm.text), "study", "name") != _without(
                json.loads(cold.text), "study", "name"
            ):
                problems.append("warm artifact differs from its cold twin")
        if problems:
            sample.failed_units += 2
            sample.failures.append(f"{spec.name}: " + "; ".join(problems))

    def checks(self) -> Tuple[int, List[str], int]:
        """The warm/cold checks run inside each repetition."""
        return 0, [], 0

    def traced_rep(self, rep: int, tracer: Tracer) -> Tuple[float, float]:
        """Client spans against the real server, then an in-process
        replay of the same studies through the cache layer and a traced
        ``run_study`` over a cached pool.

        Returns ``(traced wall, reference)``; the reference is the
        client-timed repetition's wall, comparable to an untraced
        repetition's ``RepSample.reference_s``.
        """
        pairs = self._pairs(rep, SALT_TRACED)
        gc.collect()
        start = time.perf_counter()
        for cold, warm in pairs:
            request(self.client, cold, tracer)
            request(self.client, warm, tracer)
        served = time.perf_counter()
        replay = Replay(tracer)
        replay_cache = CellCache(tempfile.mkdtemp(prefix="replay-cache-"))
        study_cache = tempfile.mkdtemp(prefix="study-cache-")
        for cold, warm in pairs:
            for spec in (cold, warm):
                replay_cached_cells(spec, replay, replay_cache)
                pool = resolve_transport("pool", jobs=spec.jobs, batch_size=spec.batch_size)
                traced_study(spec, tracer, wrap_with_cache(pool, study_cache))
            replay.traces.clear()
        return time.perf_counter() - start, served - start


def make_workload(name: str, seed: int, size: str, input_path: Optional[str] = None):
    """The workload called *name*; *input_path* reuses already
    synthesized input files (the set-up probe's case)."""
    if name == "service-mixed":
        return ServiceWorkload(seed, size)
    if name in GRID_SIZES:
        return GridWorkload(name, seed, size, input_path)
    raise BenchError(f"unknown workload {name!r}; known: {list(WORKLOAD_NAMES)}")
