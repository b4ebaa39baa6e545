"""Trace-driven collection: run the schedulers on a contact-trace file.

The paper's future work proposes trace-based evaluation; this example
shows the full pipeline on the CRAWDAD-style trace format:

1. synthesize a two-week contact trace with diurnal rush-hour structure
   (a drop-in for a real trace converted to the same format),
2. write it to disk and read it back through the trace reader,
3. run SNIP-RH against the file trace, crediting a mobile node,
4. report per-epoch collection statistics and buffer health.

To use a real CRAWDAD trace instead, convert it to the documented
``repro-contact-trace v1`` format and point ``TRACE_PATH`` at it.

Run::

    python examples/trace_driven_collection.py
"""

import tempfile
from pathlib import Path

from repro import (
    FastRunner,
    SnipRhScheduler,
    SyntheticTraceGenerator,
    TraceConfig,
    paper_roadside_scenario,
    read_trace,
    write_trace,
)
from repro.experiments.reporting import format_table
from repro.sim.rng import RandomStreams

TRACE_PATH = None  # set to a real trace file to skip synthesis


def synthesize_trace(scenario, path: Path) -> None:
    """Generate a CRAWDAD-style trace file for the scenario."""
    generator = SyntheticTraceGenerator(
        scenario.profile,
        TraceConfig(epochs=scenario.epochs, rate_drift_cv=0.2),
        streams=RandomStreams(scenario.seed),
    )
    write_trace(generator.generate(mobile_id_prefix="phone"), path)


def main() -> None:
    scenario = paper_roadside_scenario(
        phi_max_divisor=100, zeta_target=32.0, epochs=14, seed=7
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(TRACE_PATH) if TRACE_PATH else Path(tmp) / "roadside.trace"
        if TRACE_PATH is None:
            synthesize_trace(scenario, path)
        trace = read_trace(path)
        print(f"loaded {len(trace)} contacts from {path.name}; "
              f"total capacity {trace.total_capacity:.0f} s over "
              f"{trace.duration / 86400:.0f} days")
        print(f"mean contact length {trace.mean_contact_length():.2f} s; "
              f"overlapping contacts: {trace.has_overlaps()}")

        # Where are this trace's rush hours?  (What a planner would do.)
        capacities = trace.slot_capacities(86400.0, 24)
        busiest = sorted(range(24), key=lambda h: capacities[h], reverse=True)[:4]
        print(f"busiest hours in the trace: {sorted(busiest)}")

        scheduler = SnipRhScheduler(
            scenario.profile, scenario.model, initial_contact_length=2.0
        )
        result = FastRunner(scenario, scheduler, trace=trace).run()

    rows = [
        [
            row.epoch_index,
            row.zeta,
            row.phi,
            row.uploaded,
            row.probed_contacts,
            row.buffer_end_level,
        ]
        for row in result.metrics.epochs
    ]
    print()
    print(
        format_table(
            ["epoch", "zeta (s)", "Phi (s)", "uploaded (s)", "probed", "buffer (s)"],
            rows,
            title="SNIP-RH on the file trace, zeta_target = 32 s/day",
        )
    )
    print()
    # The buffer is uncapped: everything generated was uploaded or is
    # still buffered at the end of the last epoch.
    uploaded = sum(row.uploaded for row in result.metrics.epochs)
    generated = uploaded + result.metrics.epochs[-1].buffer_end_level
    print(f"delivery: {uploaded:.1f} of {generated:.1f} generated "
          f"upload-seconds ({100 * uploaded / generated:.1f}%)")


if __name__ == "__main__":
    main()
