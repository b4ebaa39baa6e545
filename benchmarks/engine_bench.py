"""Engine benchmark: the vectorized engine vs the fast runner.

Per-cell simulation cost — not orchestration — dominates the paper
grid.  This bench measures the fix: it runs the identical grid of
:class:`~repro.experiments.runner.RunSpec` cells once with
``engine="fast"`` and once with ``engine="vector"`` through
:func:`~repro.experiments.runner.execute_run_spec` (the one way a cell
runs, whatever the transport), reports the wall-clock per engine and
the vector/fast speedup, and cross-checks the engines cell by cell:
the largest difference in each agreement metric, and the number of
``(cell, epoch)`` rows whose :class:`~repro.experiments.metrics.EpochMetrics`
differ in any field (``epoch_rows_differing``; 0 when the engines
agree exactly).

The vector engine runs first, so it pays the process-wide scheduler
solve memos cold (as any fresh study process does) and ``fast`` finds
them warm: the reported speedup errs low.  The artifact records its
provenance (git commit, CPU count, Python and numpy versions); the
checked-in ``BENCH_vector.json`` is the full grid, not ``--quick``.

Usage::

    PYTHONPATH=src python benchmarks/engine_bench.py            # full grid
    PYTHONPATH=src python benchmarks/engine_bench.py --quick    # CI-sized
    PYTHONPATH=src python benchmarks/engine_bench.py --out BENCH_vector.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from itertools import zip_longest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from grid_common import PAPER_DIVISORS, PAPER_EPOCHS, SEEDS, TARGETS  # noqa: E402

from repro.experiments.parallel import available_cpus  # noqa: E402
from repro.experiments.registry import PAPER_MECHANISMS  # noqa: E402
from repro.experiments.runner import RunSpec, execute_run_spec  # noqa: E402
from repro.experiments.scenario import paper_roadside_scenario  # noqa: E402

#: The agreement metrics cross-checked between the engines.
METRICS = ("mean_zeta", "mean_phi", "probed_per_epoch")


def grid_specs(engine, *, divisors, targets, seeds, epochs):
    """The paper grid as one flat shard of RunSpecs for *engine*.

    Flattening order matches the study layer (Φmax outermost, then
    ζtarget, mechanism, replicate) and the seeds pair cell-for-cell
    across engines, so fast and vector simulate identical contact
    processes.
    """
    specs = []
    for divisor in divisors:
        for target in targets:
            for mechanism in PAPER_MECHANISMS:
                for replicate, seed in enumerate(seeds):
                    scenario = paper_roadside_scenario(
                        phi_max_divisor=divisor,
                        zeta_target=target,
                        epochs=epochs,
                        seed=seed,
                    )
                    specs.append(
                        RunSpec(
                            scenario=scenario,
                            mechanism=mechanism,
                            replicate=replicate,
                            engine=engine,
                        )
                    )
    return specs


def _metric(result, name):
    if name == "probed_per_epoch":
        return result.metrics.total_probed / result.metrics.epoch_count
    return float(getattr(result, name))


def _epoch_rows_differing(fast_results, vector_results):
    """``(cell, epoch)`` rows whose EpochMetrics differ in any field.

    Compared with ``==`` on the dataclasses, so every field counts;
    an epoch present in one engine's run only counts as differing.
    """
    return sum(
        fast_epoch != vector_epoch
        for fast, vec in zip(fast_results, vector_results)
        for fast_epoch, vector_epoch in zip_longest(
            fast.metrics.epochs, vec.metrics.epochs
        )
    )


def _warmup(engine):
    """One untimed tiny run so one-off setup stays out of the timings.

    Both engines get the identical warmup (import costs, which would
    otherwise land inside the timed region).
    """
    scenario = paper_roadside_scenario(
        phi_max_divisor=1000.0, zeta_target=TARGETS[0], epochs=1, seed=1,
    )
    execute_run_spec(RunSpec(scenario=scenario, mechanism="SNIP-AT", engine=engine))


def _git_commit():
    """The checkout's HEAD commit (``-dirty`` with local edits), or None
    outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    """Run the bench and write the BENCH_vector.json artifact."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized grid (2 targets, 2 epochs, 2 seeds) instead of "
             "the full Fig. 7/8 grid",
    )
    parser.add_argument(
        "--out", default="BENCH_vector.json",
        help="artifact path (default: BENCH_vector.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        targets, seeds, epochs = TARGETS[:2], (1, 2), 2
    else:
        targets, seeds, epochs = TARGETS, SEEDS, PAPER_EPOCHS

    shards = {
        engine: grid_specs(
            engine, divisors=PAPER_DIVISORS, targets=targets,
            seeds=seeds, epochs=epochs,
        )
        for engine in ("vector", "fast")
    }
    total = len(shards["fast"])
    print(f"engine bench: {total} runs/engine, epochs={epochs}")

    seconds = {}
    results = {}
    for engine, specs in shards.items():
        _warmup(engine)
        start = time.perf_counter()
        results[engine] = [execute_run_spec(spec) for spec in specs]
        seconds[engine] = time.perf_counter() - start
        print(f"{engine:>8}: {seconds[engine]:7.2f}s")

    max_abs_delta = {
        name: max(
            abs(_metric(vec, name) - _metric(fast, name))
            for fast, vec in zip(results["fast"], results["vector"])
        )
        for name in METRICS
    }
    rows_differing = _epoch_rows_differing(results["fast"], results["vector"])
    speedup = (
        round(seconds["fast"] / seconds["vector"], 3)
        if seconds["vector"] > 0 else None
    )

    artifact = {
        "study": "engine-bench-fast-vs-vector",
        "total_runs": total,
        "epochs": epochs,
        "jobs": 1,
        "available_cpus": available_cpus(),
        "quick": args.quick,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seconds": {name: round(value, 4) for name, value in seconds.items()},
        "speedup_vector_vs_fast": speedup,
        "max_abs_delta": {
            name: float(f"{value:.3e}") for name, value in max_abs_delta.items()
        },
        "epoch_rows_differing": rows_differing,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    print(f"vector speedup over fast: {speedup}x")
    for name, value in max_abs_delta.items():
        print(f"max |delta| {name}: {value:.3e}")
    print(f"epoch rows differing: {rows_differing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
