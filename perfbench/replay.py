"""The traced per-layer replay.

A traced repetition runs the cells of one study twice, with spans at
every layer boundary and nothing patched inside ``src/``:

1. **Replay** — each cell goes through the layers' public functions in
   turn: ``generate_trace`` (``mobility``), the registry scheduler
   factory (``core.schedulers``), ``VectorEngine.run(..., trace=)``
   per mechanism (``experiments.vector``), ``evaluate_schedulers`` per
   budget (``core.analysis``) and, for cached studies, ``cache_key`` /
   ``CellCache.get`` / ``encode_result`` + ``CellCache.put``
   (``cache``).
2. **Study** — the real ``run_study`` with :class:`TracingExecutor`
   wrapped around the real transport, so the time inside the transport
   and the orchestration around it (``experiments.spec``) separate,
   followed by ``StudyResult.to_json`` (``reporting``).

Per-layer figures are totals over one repetition; ``run.py`` reports
their median across traced repetitions.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from harness import Tracer
from repro.cache import CellCache, cache_key, decode_result, encode_result
from repro.core.analysis import evaluate_schedulers
from repro.experiments.engine import resolve_engine
from repro.experiments.parallel import SerialExecutor
from repro.experiments.registry import mechanism_factories
from repro.experiments.runner import RunSpec, generate_trace
from repro.experiments.spec import StudySpec, run_study
from repro.scenarios import materialize_scenario

#: Every per-layer metric a traced run reports, with its unit, in the
#: order of the layers a cell passes through.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("mobility.trace_s", "s"),
    ("mobility.trace_calls", "count"),
    ("mobility.contacts", "count"),
    ("core.scheduler_build_s", "s"),
    ("core.scheduler_builds", "count"),
    ("core.predictions_s", "s"),
    ("vector.kernel_s.SNIP-RH", "s"),
    ("vector.kernel_s.SNIP-OPT", "s"),
    ("vector.kernel_s.SNIP-AT", "s"),
    ("vector.probes", "count"),
    ("spec.orchestration_s", "s"),
    ("transport.bytes_per_cell", "bytes"),
    ("transport.pickle_s", "s"),
    ("transport.first_result_s", "s"),
    ("transport.in_imap_s", "s"),
    ("cache.key_s", "s"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entry_bytes", "bytes"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.stream_s", "s"),
    ("service.result_s", "s"),
    ("reporting.to_json_s", "s"),
    ("reporting.artifact_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)

#: Mechanisms with a closed-form prediction (as in ``run_study``).
_PREDICTED = ("SNIP-AT", "SNIP-OPT", "SNIP-RH")


class TracingExecutor:
    """A timing wrapper around the real transport.

    For a transport that ships cells to other processes (*crossing*),
    records a ``transport.in_imap_s`` span for every stretch of time
    spent inside the inner ``imap``, the time to the first result, and
    a pickle probe: every result that crossed a process boundary is
    pickled once more, timed and sized — the per-cell payload the
    transport shipped.  The in-process serial path has no transport
    cost of its own; its time is the cells' execution (broken down by
    the replay), recorded as ``cells.in_process_s``.
    """

    def __init__(self, inner: Any, tracer: Tracer, *, crossing: bool) -> None:
        self.inner = inner
        self.tracer = tracer
        self.crossing = crossing
        self.span_name = "transport.in_imap_s" if crossing else "cells.in_process_s"

    def imap(self, fn, items) -> Iterator[Tuple[int, Any]]:
        tracer = self.tracer
        begin = time.perf_counter()
        first = True
        stream = iter(self.inner.imap(fn, items))
        while True:
            start = time.perf_counter()
            try:
                index, value = next(stream)
            except StopIteration:
                tracer.record(self.span_name, start, time.perf_counter())
                return
            now = time.perf_counter()
            tracer.record(self.span_name, start, now)
            if not self.crossing:
                yield index, value
                continue
            if first:
                tracer.count("transport.first_result_s", now - begin)
                first = False
            if not getattr(value, "from_cache", False):
                probe = time.perf_counter()
                size = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
                tracer.record("transport.pickle_s", probe, time.perf_counter())
                tracer.count("transport.pickled_cells")
                tracer.count("transport.pickled_bytes", size)
            yield index, value


class Replay:
    """Per-cell calls into the mobility, core and vector layers.

    Traces are generated once per contact process within a repetition,
    exactly as the engine's per-process memo would; because every
    repetition draws fresh replicate seeds, ``mobility.trace_calls``
    equals the replicate count of each study replayed.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.engine = resolve_engine("vector")
        self.traces: Dict[Tuple[Any, ...], Any] = {}

    def cells(self, spec: StudySpec) -> Iterator[Tuple[Any, str, int, Any]]:
        """Yield ``(ref, mechanism, replicate, scenario)`` in
        ``run_study``'s flattening order, with predictions per budget."""
        seeds = spec.resolved_seeds()
        for ref in spec.scenarios:
            template = materialize_scenario(ref, epochs=spec.epochs, seed=spec.seed)
            for phi_max in spec.phi_maxes:
                budget_base = template.with_budget(phi_max)
                if spec.with_predictions:
                    self.predictions(spec, budget_base)
                for target in spec.zeta_targets:
                    cell_base = budget_base.with_target(target)
                    for mechanism in spec.mechanisms:
                        for replicate, seed in enumerate(seeds):
                            yield ref, mechanism, replicate, cell_base.with_seed(seed)

    def predictions(self, spec: StudySpec, budget_base) -> None:
        known = [name for name in spec.mechanisms if name in _PREDICTED]
        if not known:
            return
        with self.tracer.span("core.predictions_s"):
            evaluate_schedulers(
                budget_base.profile,
                budget_base.model,
                zeta_targets=spec.zeta_targets,
                phi_max=budget_base.phi_max,
                mechanisms=known,
            )

    def trace_for(self, scenario):
        key = (
            scenario.profile,
            scenario.trace_config,
            scenario.contact_source,
            scenario.seed,
        )
        trace = self.traces.get(key)
        if trace is None:
            with self.tracer.span("mobility.trace_s"):
                trace = generate_trace(scenario)
            self.tracer.count("mobility.trace_calls")
            self.tracer.count("mobility.contacts", len(trace))
            self.traces[key] = trace
        return trace

    def compute(self, scenario, mechanism: str):
        trace = self.trace_for(scenario)
        with self.tracer.span("core.scheduler_build_s"):
            scheduler = mechanism_factories.resolve(mechanism)(scenario)
        self.tracer.count("core.scheduler_builds")
        with self.tracer.span(f"vector.kernel_s.{mechanism}"):
            result = self.engine.run(scenario, scheduler, trace=trace)
        self.tracer.count("vector.probes", result.metrics.total_probed)
        return result


def replay_cells(spec: StudySpec, replay: Replay) -> None:
    """Compute every cell of *spec* through the layer calls."""
    for _, mechanism, _, scenario in replay.cells(spec):
        replay.compute(scenario, mechanism)


def replay_cached_cells(spec: StudySpec, replay: Replay, cache: CellCache) -> None:
    """Every cell of *spec* through the cache layer: key, get, and on a
    miss compute + encode + put — the path ``CachedTransport`` takes."""
    tracer = replay.tracer
    for ref, mechanism, replicate, scenario in replay.cells(spec):
        run_spec = RunSpec(
            scenario=scenario,
            mechanism=mechanism,
            replicate=replicate,
            engine=spec.engines[0],
            scenario_ref=ref,
        )
        with tracer.span("cache.key_s"):
            key = cache_key(run_spec)
        with tracer.span("cache.get_s"):
            payload = cache.get(key)
            if payload is not None:
                decode_result(run_spec, payload)
        tracer.count("cache.gets")
        if payload is not None:
            tracer.count("cache.hits")
            continue
        result = replay.compute(scenario, mechanism)
        with tracer.span("cache.put_s"):
            cache.put(key, encode_result(result))
        tracer.count("cache.puts")
        tracer.count(
            "cache.put_bytes",
            os.path.getsize(os.path.join(cache.root, "cells", f"{key}.json")),
        )


def traced_study(
    spec: StudySpec, tracer: Tracer, executor: Optional[Any]
) -> float:
    """The real ``run_study`` + ``to_json`` through a timing wrapper.

    *executor* is the real transport (None: the in-process serial
    path).  Returns the wall time of study plus artifact.
    """
    inner = executor if executor is not None else SerialExecutor()
    tracing = TracingExecutor(inner, tracer, crossing=executor is not None)
    start = time.perf_counter()
    with tracer.span("spec.orchestration_s"):
        result = run_study(spec, executor=tracing)
    with tracer.span("reporting.to_json_s"):
        text = result.to_json()
    tracer.count("reporting.artifacts")
    tracer.count("reporting.artifact_bytes", len(text.encode("utf-8")))
    return time.perf_counter() - start


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, wall: float) -> Dict[str, float]:
    """One repetition's per-layer figures (``trace.overhead_s`` excluded:
    it compares repetitions, see ``run.py``)."""
    own = tracer.self_times()
    counts = tracer.counts
    values = {
        name: own.get(name, 0.0)
        for name, unit in LAYER_METRICS
        if unit == "s" and name != "trace.overhead_s"
    }
    values.update({
        "mobility.trace_calls": counts.get("mobility.trace_calls", 0),
        "mobility.contacts": counts.get("mobility.contacts", 0),
        "core.scheduler_builds": counts.get("core.scheduler_builds", 0),
        "vector.probes": counts.get("vector.probes", 0),
        "transport.bytes_per_cell": _ratio(
            counts.get("transport.pickled_bytes", 0),
            counts.get("transport.pickled_cells", 0),
        ),
        "transport.first_result_s": counts.get("transport.first_result_s", 0.0),
        "cache.hit_ratio": _ratio(
            counts.get("cache.hits", 0), counts.get("cache.gets", 0)
        ),
        "cache.entry_bytes": _ratio(
            counts.get("cache.put_bytes", 0), counts.get("cache.puts", 0)
        ),
        "reporting.artifact_bytes": _ratio(
            counts.get("reporting.artifact_bytes", 0),
            counts.get("reporting.artifacts", 0),
        ),
        "trace.coverage": _ratio(tracer.covered(), wall),
    })
    return values
