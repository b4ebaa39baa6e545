"""The repository benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: timed repetitions for
``--seconds``, each on fresh replicate seeds drawn from ``--seed`` and
the repetition index, then the correctness checks, then set-up (median
of several fresh-interpreter set-ups).  Every timing is scaled to a
reference host speed by ``harness.HostClock``.  ``--trace 1``
alternates untraced repetitions with traced ones (see ``replay.py``)
and reports the per-layer metrics, their coverage of the traced wall
time, and the tracing overhead.

Human-readable lines come first, then a ``record:`` line carrying the
provenance and every summary, and last the result line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every repetition and check passed; a
checkout without the program source exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import harness

#: Every end-to-end metric, with its unit; all are reported by every
#: workload.
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("study_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the self-test only",
    )
    return parser.parse_args(argv)


@dataclass
class Measurement:
    """Everything one invocation measured, before summarizing."""

    reps: List[Any] = field(default_factory=list)
    #: Per traced repetition: (per-layer values, overhead reference).
    traced: List[Tuple[Dict[str, float], float]] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    #: ``harness.peak_rss_mb()`` right after the timed repetitions.
    memory: Dict[str, float] = field(default_factory=dict)
    #: The timed loop's ``HostClock.loop_s``.
    reference_loop_s: List[float] = field(default_factory=list)
    measured_s: float = 0.0
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sizes: Dict[str, Any] = field(default_factory=dict)


def measure(args) -> Measurement:
    import replay
    import workloads

    out = Measurement()
    with harness.scratch_dir() as scratch:
        workload = workloads.make_workload(args.workload, args.seed, args.size)
        workload.prepare_inputs(scratch)
        try:
            workload.setup()
            clock = harness.HostClock()
            start = time.perf_counter()
            while True:
                rep = len(out.reps)
                try:
                    sample = workload.timed_rep(rep, clock)
                # A repetition that raises is a failed unit of work, not
                # a crash: it is counted and reported, and the run stops.
                except Exception as exc:
                    out.attempted += workload.units_per_rep
                    out.failed += workload.units_per_rep
                    out.failures.append(
                        f"repetition {rep} raised {type(exc).__name__}: {exc}"
                    )
                    break
                out.reps.append(sample)
                if args.trace:
                    tracer = harness.Tracer()
                    wall, reference = workload.traced_rep(rep, tracer)
                    out.traced.append((replay.layer_values(tracer, wall), reference))
                if time.perf_counter() - start >= args.seconds:
                    break
            out.measured_s = time.perf_counter() - start
            # Read before the checks and the set-up probes, so the only
            # children counted are the workload's pool and queue workers.
            out.memory = harness.peak_rss_mb()
            out.reference_loop_s = clock.loop_s
            if out.reps:
                checks, failures, failed_units = workload.checks()
                out.checks += checks
                out.failures += failures
                out.failed += failed_units
            out.sizes = workload.input_sizes()
        finally:
            workload.close()
        if out.reps and not args.trace:
            out.setup_samples = harness.measure_setup(
                args.workload, args.seed, args.size, workload.input_args()
            )
    for sample in out.reps:
        out.attempted += sample.cells if args.workload != "service-mixed" else sample.studies
        out.failed += sample.failed_units
        out.failures += sample.failures
        out.checks += sample.checks
    return out


def summarize(args, out: Measurement) -> Tuple[Dict[str, Any], Dict[str, tuple]]:
    """The record body and the result-line metrics."""
    import replay

    memory = out.memory
    reps = out.reps
    scales = [scale for rep in reps for scale in rep.scales]
    throughput = [value for rep in reps for value in rep.throughput]
    latency = {
        kind: [
            value * scale
            for rep in reps
            for value, scale in zip(rep.latencies.get(kind, []), rep.scales)
        ]
        for kind in ("cold", "warm")
    }
    summaries: Dict[str, Any] = {
        "cells_per_s": harness.summarize(
            [value / scale for value, scale in zip(throughput, scales)]
        ),
        "study_p50_s": harness.summarize(latency["cold"]),
        "peak_rss_mb": memory,
    }
    extras: Dict[str, Any] = {
        "wall_cells_per_s": harness.summarize(throughput),
        "wall_study_p50_s": harness.summarize(
            [value for rep in reps for value in rep.latencies["cold"]]
        ),
        "reference_loop_s": harness.summarize(out.reference_loop_s),
    }
    if latency["warm"]:
        extras["warm_study_p50_s"] = harness.summarize(latency["warm"])
    every_study = latency["cold"] + latency["warm"]
    extras["study_p90_s"] = {
        "value": harness.percentile(every_study, 90), "n": len(every_study)
    }
    extras["studies_per_s"] = harness.summarize(
        [rep.studies / (rep.wall * statistics.fmean(rep.scales)) for rep in reps]
    )

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(reps),
        "traced_repetitions": len(out.traced),
        "measured_s": out.measured_s,
        "inputs": out.sizes,
        "provenance": harness.provenance(),
        "reference_s": harness.REFERENCE_S,
        "summaries": summaries,
        "extras": extras,
        "checks": out.checks,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
    }
    if args.trace:
        layers = {
            name: harness.summarize([values[name] for values, _ in out.traced])
            for name, _ in replay.LAYER_METRICS
            if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = {
            "median": statistics.median(ref for _, ref in out.traced)
            - statistics.median(rep.reference_s for rep in reps),
            "n": len(out.traced),
        }
        record["layers"] = layers
        metrics = {
            name: (layers[name]["median"], unit) for name, unit in replay.LAYER_METRICS
        }
    else:
        summaries["setup_s"] = harness.summarize(out.setup_samples)
        values = {
            "cells_per_s": summaries["cells_per_s"]["median"],
            "study_p50_s": summaries["study_p50_s"]["median"],
            "peak_rss_mb": memory["total"],
            "setup_s": summaries["setup_s"]["median"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return record, metrics


def _fmt(summary: Dict[str, float]) -> str:
    return (
        f"{summary['median']:.6g} [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}]"
        f" n={summary['n']}"
    )


def report(args, out: Measurement, record: Optional[Dict[str, Any]]) -> None:
    """The human-readable lines."""
    import replay

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(out.reps)} repetitions in {out.measured_s:.2f}s; timings scaled to "
        f"a reference loop of {harness.REFERENCE_S:g} s"
    )
    if record is not None and args.trace:
        layers = record["layers"]
        for name, unit in replay.LAYER_METRICS:
            summary = layers[name]
            line = _fmt(summary) if "q1" in summary else f"{summary['median']:.6g}"
            print(f"  {name:<28} {line} {unit}")
        timed_layers = {
            name: layers[name]["median"]
            for name, unit in replay.LAYER_METRICS
            if unit == "s" and not name.startswith(("trace.", "service."))
        }
        total = sum(timed_layers.values())
        ranked = sorted(timed_layers.items(), key=lambda item: -item[1])[:4]
        print("  largest layers (share of summed layer time): " + ", ".join(
            f"{name} {value / total:.0%}" for name, value in ranked
        ))
    elif record is not None:
        summaries = record["summaries"]
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                memory = summaries[name]
                print(
                    f"  {name:<18} {memory['total']:.6g} {unit} "
                    f"(self {memory['self']:.6g} + children {memory['children']:.6g})"
                )
            else:
                print(f"  {name:<18} {_fmt(summaries[name])} {unit}")
    if record is not None:
        for name, summary in record["extras"].items():
            if "q1" in summary:
                print(f"  {name:<18} {_fmt(summary)}")
            elif summary["value"] is None:
                print(f"  {name:<18} not reported: n={summary['n']} leaves fewer "
                      f"than {harness.PERCENTILE_TAIL} samples beyond it")
            else:
                print(f"  {name:<18} {summary['value']:.6g} n={summary['n']}")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    print(
        f"  failed_ratio       {ratio:.6g} fraction "
        f"({out.failed} of {out.attempted}; {out.checks} reference checks)"
    )
    for message in out.failures:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.locate_program()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = measure(args)
    if not out.reps:
        report(args, out, None)
        return 1
    record, metrics = summarize(args, out)
    report(args, out, record)
    print("record: " + json.dumps(record, sort_keys=True))
    print(harness.result_line(out.failed == 0, out.attempted, out.failed, metrics))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
