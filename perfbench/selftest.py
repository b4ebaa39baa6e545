"""Tiny-size self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload, declared and extra, at ``--size tiny`` with
tracing off and on, and asserts that

* the last stdout line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with every check passing;
* tracing off emits every end-to-end metric declared in
  ``BENCHMARK.json`` with its unit, and tracing on every per-layer one;
* ``peak_rss_mb`` is this process's peak plus its children's, and the
  children are the workload's workers only (none on serial workloads);
* the code's workload and metric catalogues match ``BENCHMARK.json``;
* a directory holding only ``BENCHMARK.json`` and the benchmark fails
  without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
from harness import WORKLOAD_NAMES as WORKLOADS

#: Workloads whose timed repetitions run pool or file-queue workers.
WORKER_WORKLOADS = ("grid-file-queue", "service-mixed")

#: Largest child a serial workload may show when memory is read: a
#: helper spawned while importing numpy, never a worker, which holds an
#: imported ``repro``.
HELPER_CHILD_MB = 16.0


def run_bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def main() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(harness.DECLARED_WORKLOADS)
    harness.locate_program()
    import replay
    import run

    assert dict(run.END_TO_END) == end_to_end, (run.END_TO_END, end_to_end)
    assert dict(replay.LAYER_METRICS) == per_layer, (replay.LAYER_METRICS, per_layer)

    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            done = run_bench(harness.ROOT, workload, trace)
            assert done.returncode == 0, (workload, trace, done.stderr[-3000:])
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            emitted = {name: body["unit"] for name, body in result["metrics"].items()}
            assert emitted == expected, (workload, trace, emitted)
            record = json.loads(lines[-2][len("record: "):])
            if trace == 0:
                memory = record["summaries"]["peak_rss_mb"]
                if workload in WORKER_WORKLOADS:
                    assert memory["children"] > HELPER_CHILD_MB, memory
                else:
                    assert memory["children"] < HELPER_CHILD_MB, memory
                assert abs(memory["total"] - memory["self"] - memory["children"]) < 1e-9
                assert result["metrics"]["peak_rss_mb"]["value"] == memory["total"]
            print(f"ok  {workload:<16} trace={trace}")

    with harness.scratch_dir() as scratch:
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            harness.BENCH_DIR, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = run_bench(bare, "paper-grid", 0)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
    print("ok  bare checkout exits", done.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
