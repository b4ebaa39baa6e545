"""Shared plumbing for the repository benchmark.

Locating the program source in the checkout, a private scratch
directory inside it, per-repetition seed derivation, summary
statistics with the percentile rule, host-speed scaling, provenance,
in-memory spans, peak memory, and the final result line.  Nothing here imports ``repro``:
:func:`locate_program` must run first, so a checkout without the
program source fails before any work starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: The declared workloads, in ``BENCHMARK.json`` order.
DECLARED_WORKLOADS = ("paper-grid", "service-mixed")

#: Workloads that run and trace like the declared ones but are left out
#: of ``BENCHMARK.json``: on a 2-vCPU shared host, four workloads only
#: fit the benchmark's time budget at a run length too short to hold
#: the bounds (see README.md).  They remain the place to trace file
#: ingest and the file-queue transport.
EXTRA_WORKLOADS = ("trace-replay", "grid-file-queue")

WORKLOAD_NAMES = DECLARED_WORKLOADS + EXTRA_WORKLOADS

#: Seed-derivation salts: each purpose draws from its own stream, so a
#: warm-up cell or a traced repetition never shares a replicate seed
#: (and therefore a per-process trace memo entry or a cache entry) with
#: a timed repetition.
SALT_TIMED = 1
SALT_TRACED = 2
SALT_SETUP = 3
SALT_INPUT = 4

#: Setup is measured this many times per run (fresh interpreters); the
#: median is reported.
SETUP_SAMPLES = 5

#: A percentile is reported only when at least this many samples lie
#: beyond it.
PERCENTILE_TAIL = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def locate_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"program source not found: expected {SRC}/repro/__init__.py "
            "(run the benchmark from a full checkout)"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A private directory under the checkout, removed on exit.

    Every temporary file the program makes (file-queue directories,
    cell caches, study stores, synthesized traces) lands here:
    ``tempfile`` and child processes are pointed at it through
    ``TMPDIR``.
    """
    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
    previous_env = os.environ.get("TMPDIR")
    previous_tempdir = tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = previous_tempdir
        if previous_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous_env
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no concurrent run still uses it


def fresh_seeds(workload_seed: int, rep: int, count: int, salt: int) -> List[int]:
    """*count* replicate seeds for repetition *rep* of one purpose.

    A pure function of its arguments, so parent and change see the same
    seeds, while every repetition gets seeds no other repetition used.
    """
    state = np.random.SeedSequence([workload_seed, salt, rep]).generate_state(count)
    return [int(value) % (2**31 - 1) for value in state]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of *values*."""
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(values: Sequence[float], pct: int) -> Optional[float]:
    """The *pct*-th percentile, or None when fewer than
    :data:`PERCENTILE_TAIL` samples lie beyond it."""
    values = list(values)
    if len(values) * (100 - pct) / 100.0 < PERCENTILE_TAIL:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


# ----------------------------------------------------------------------
# provenance and memory
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """sha256 over every file of the program source, path-sorted.

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(**extra) -> Dict[str, object]:
    """The record stamp: code identity, host, toolchain, and *extra*."""
    from repro.experiments.parallel import available_cpus

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "nproc": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
        **extra,
    }


#: Seconds :func:`reference_loop_s` and :func:`reference_import_s` are
#: scaled to: about what each takes on a quiet 2-vCPU Xeon VM (Python
#: 3.11, numpy 2.4, scipy 1.x).  Fixed constants, never re-measured, so
#: figures of different commits stay comparable.
REFERENCE_S = 0.05
REFERENCE_IMPORT_S = 0.75

#: What :func:`reference_import_s` imports: the third-party and standard
#: modules a set-up loads, without ``repro``.
REFERENCE_IMPORTS = "numpy, scipy.stats, json, argparse, http.server, urllib.request, multiprocessing"

_REFERENCE_ARRAY = np.random.default_rng(12345).random(50_000)


def reference_loop_s() -> float:
    """Seconds of one fixed reference workload that never touches
    ``repro``: a pure-Python loop and a few numpy sort/scan passes, the
    two kinds of work the program does."""
    start = time.perf_counter()
    total = 0
    for value in range(600_000):
        total += value * value
    for _ in range(6):
        ordered = np.sort(_REFERENCE_ARRAY)
        sums = np.cumsum(ordered)
        np.searchsorted(sums, ordered)
    return time.perf_counter() - start


def reference_import_s() -> float:
    """Seconds a fresh interpreter takes to import
    :data:`REFERENCE_IMPORTS`: the reference for set-up, which is mostly
    imports and moves with the host's file and loader speed more than
    with its arithmetic speed."""
    code = (
        "import time; start = time.perf_counter(); "
        f"import {REFERENCE_IMPORTS}; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


class HostClock:
    """Scales timings to a reference host speed.

    A shared host's speed drifts by up to 2x over minutes, and every
    timing of the program drifts with it.  The clock times a fixed
    *reference* between units of work; :meth:`scale` returns the factor
    for the work done since its previous call, *reference_s* over the
    mean of the two reference times that bracket that work.  A duration
    times the factor, or a rate divided by it, reads as on a host where
    the reference takes *reference_s*.  The reference's own times are
    kept in :attr:`loop_s` for the record.
    """

    def __init__(self, reference=reference_loop_s, reference_s: float = REFERENCE_S) -> None:
        self.reference = reference
        self.reference_s = reference_s
        self.loop_s: List[float] = [reference()]

    def scale(self) -> float:
        self.loop_s.append(self.reference())
        return self.reference_s / (0.5 * (self.loop_s[-2] + self.loop_s[-1]))


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident memory of this process plus its largest child.

    ``RUSAGE_CHILDREN`` covers every waited-for child so far; read right
    after the timed repetitions, those are only the pool and file-queue
    workers, and the sum bounds the memory the workload held at once.
    Linux reports kilobytes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"total": own + children, "self": own, "children": children}


def measure_setup(workload: str, seed: int, size: str, input_args: Sequence[str]) -> List[float]:
    """Set-up time, measured :data:`SETUP_SAMPLES` times in fresh
    interpreters, each scaled by the import references around it."""
    samples = []
    clock = HostClock(reference_import_s, REFERENCE_IMPORT_S)
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [
                sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                "--workload", workload, "--seed", str(seed), "--size", size,
                *input_args,
            ],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if done.returncode != 0:
            raise BenchError(
                f"setup probe failed (exit {done.returncode}): "
                f"{done.stderr.strip()[-2000:]}"
            )
        raw = float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        samples.append(raw * clock.scale())
    return samples


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval at a layer boundary."""

    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts kept in memory for one traced repetition.

    Spans nest through a stack: a span opened while another is open
    becomes its child, and a layer's self time is its duration minus
    that of its direct children.
    """

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-timed span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus direct children's."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] = totals.get(parent, 0.0) - span.duration
        return totals

    def covered(self) -> float:
        """Seconds covered by top-level spans (= the sum of self times)."""
        return sum(span.duration for span in self.spans if span.parent is None)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]
) -> str:
    """The final stdout line: ``{"correct", "attempted", "failed", "metrics"}``."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
