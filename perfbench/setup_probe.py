"""Measure one set-up in a fresh interpreter (a child of ``run.py``).

Set-up is everything before a workload's first timed repetition:
importing ``repro``, resolving the workload's registry names, and one
untimed warm-up cell (on ``service-mixed`` also starting the server
and recovering its store).  The workload's input files already exist;
making them is not set-up.  Prints ``{"setup_s": ...}``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--input", default=None)
    args = parser.parse_args()
    harness.locate_program()
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, args.size, args.input)
    try:
        workload.setup()
        elapsed = time.perf_counter() - START
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
