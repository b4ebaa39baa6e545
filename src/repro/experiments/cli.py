"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro-snip analyze --budget-divisor 1000
    repro-snip run                       # the Fig. 7/8 grid, StudySpec()
    repro-snip run --jobs 4 --set axes.replicates=3
    repro-snip run --spec examples/paper_study.json --jobs 4 --out grid.json
    repro-snip run --spec study.json --set scenario.epochs=2 --set axes.engines=fast,micro
    repro-snip run --spec examples/agreement_gate.json --gate 6.0
    repro-snip run --spec examples/fleet_study.json --jobs 2
    repro-snip run --scenario diurnal --scenario-option ratio=12
    repro-snip run --spec study.json --transport file-queue
    repro-snip run --spec study.json --cache /var/cellcache   # resumable
    repro-snip cache stats /var/cellcache
    repro-snip worker --queue /shared/queue   # serve file-queue tickets
    repro-snip serve --store /var/studies --port 8321   # HTTP study service
    repro-snip run --spec study.json --server http://127.0.0.1:8321
    repro-snip lint src tests --format github
    repro-snip gain

(Equivalently ``python -m repro <subcommand>``.)  The CLI is a thin
shell over the declarative study layer
(:mod:`repro.experiments.spec`): ``run`` is the one way to launch a
study.  It executes a serializable
:class:`~repro.experiments.spec.StudySpec` file — or, without
``--spec``, the default ``StudySpec()`` (the paper's Fig. 7/8 grid) —
with dotted-path ``--set section.key=value`` overrides; a spec listing
two or more engines is a paired agreement grid, and one with a
``network`` section is a fleet study.  ``--emit-spec PATH`` writes the
effective spec instead of running it.  ``--jobs N`` shards over a
process pool and ``--transport NAME`` picks any registered execution
backend (``serial``, ``pool``, ``file-queue``;
:mod:`repro.experiments.transport`); the run reports whether the
distributed path was actually taken (a serial fallback also emits a
:class:`~repro.experiments.parallel.ParallelFallbackWarning` to
stderr naming the study).  ``--out PATH`` writes the study result as
``.json`` or ``.csv``.  ``worker`` serves a file-queue directory from
this or any other host.  ``--gate TOL`` is the CI agreement gate: exit
non-zero when any paired per-cell delta CI excludes zero beyond the
tolerance.

``run --cache DIR`` (shorthand for ``--set execution.cache=DIR``)
reuses cell outcomes from a content-addressed cache directory
(:mod:`repro.cache`) and writes new ones back, so a crashed, cancelled,
or edited study resumes by recomputing only the missing cells; the
``cache`` subcommand inspects (``stats``), evicts (``gc``), and
re-validates (``verify``) such a directory.

``serve`` runs the HTTP study service (:mod:`repro.service`): specs
are submitted as JSON over ``POST /studies``, progress streams as
server-sent events, and results persist in a content-addressed store
directory.  ``run --server URL`` submits the (post-``--set``) spec to
such a server instead of executing locally, streams the same per-cell
progress lines, and fetches the byte-identical artifact for ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from ..analysis.findings import LINT_FORMATS
from ..core.analysis import evaluate_schedulers, rush_hour_gain_surface
from ..errors import ConfigurationError, ReproError
from ..scenarios import available_scenarios
from ..units import DAY, require_non_negative, require_positive
from .agreement import AGREEMENT_METRICS, AgreementResult
from .parallel import Transport
from .reporting import (
    format_estimate,
    format_series,
    format_table,
    write_artifact,
)
from .scenario import PAPER_ZETA_TARGETS, paper_roadside_scenario
from .spec import StudySpec, run_study
from .sweep import progress_event


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (--jobs, --replicates)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for ``--gate``: a non-negative finite number.

    Rejected before the study runs: a NaN or infinite tolerance would
    make every delta CI pass the gate vacuously.
    """
    try:
        return require_non_negative("gate tolerance", float(text))
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _override(text: str) -> Tuple[str, object]:
    """argparse type for ``--set path=value`` dotted-path overrides.

    The value is parsed as JSON when possible (numbers, lists, null,
    booleans); anything unparsable stays a bare string, so
    ``--set axes.engines=fast,micro`` and
    ``--set 'scenario.zeta_targets=[16, 24]'`` both work.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected path=value, got {text!r}"
        )
    path, raw = text.split("=", 1)
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path.strip(), value


def _write_output(path: str, result) -> None:
    """Write *result* (anything with to_json/to_csv) to *path*."""
    write_artifact(path, result)
    print(f"wrote {path}")


def _report_pool(spec: StudySpec, executor: Transport) -> None:
    """The transport diagnostic line (asserted by the CI smokes).

    Printed for every transport, named by the registry name it was
    built from.  ``pool used`` means the distributed path was actually
    taken — for the pool transport that the shards ran on worker
    processes, for the file queue that at least one ticket was
    completed by another process (a spawned or external worker); a
    serial run always reports ``no``.  The job count is the spec's
    ``jobs`` when the run fanned out and 1 for any in-process run.
    """
    parallel = executor.last_map_parallel
    jobs = spec.jobs if parallel else 1
    print(
        f"study fan-out: {jobs} jobs via {spec.resolved_transport!r} "
        f"transport, pool used: {'yes' if parallel else 'no'}"
    )


def _scenario_entry(args: argparse.Namespace):
    """The ``axes.scenarios`` entry the scenario flags request, or None."""
    options = dict(args.scenario_options)
    if args.scenario is None:
        if options:
            raise ConfigurationError(
                "--scenario-option requires --scenario NAME"
            )
        return None
    if options:
        return {"name": args.scenario, "options": options}
    return args.scenario


def build_parser() -> argparse.ArgumentParser:
    """The `repro-snip` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-snip",
        description=(
            "Reproduce the evaluation of 'Exploiting Rush Hours for "
            "Energy-Efficient Contact Probing in Opportunistic Data "
            "Collection' (ICDCSW 2011)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="closed-form results (Figs. 5/6)"
    )
    analyze.add_argument(
        "--budget-divisor",
        type=float,
        default=1000.0,
        help="Phi_max = Tepoch / divisor (paper: 1000 or 100)",
    )
    analyze.add_argument(
        "--targets",
        type=float,
        nargs="+",
        default=list(PAPER_ZETA_TARGETS),
        help="zeta_target sweep values in seconds",
    )

    run = sub.add_parser(
        "run",
        help="execute a declarative StudySpec (grid, agreement, or fleet)",
    )
    run.add_argument(
        "--spec", default=None, metavar="PATH",
        help="StudySpec JSON file to execute (default: StudySpec(), "
             "the paper's Fig. 7/8 grid)",
    )
    run.add_argument(
        "--set", dest="overrides", action="append", type=_override,
        default=[], metavar="PATH=VALUE",
        help="dotted-path spec override (repeatable), e.g. "
             "--set scenario.epochs=2 --set axes.engines=fast,micro",
    )
    run.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="shorthand for --set execution.jobs=N",
    )
    run.add_argument(
        "--transport", default=None, metavar="NAME",
        help="shorthand for --set execution.transport=NAME "
             "(serial, pool, file-queue, or any registered transport)",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the StudyResult document (shorthand for "
             "--set outputs.out=PATH; .json or .csv by extension)",
    )
    run.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shorthand for --set execution.cache=DIR: reuse cell "
             "outcomes from (and write new ones to) a content-addressed "
             "cache directory, making crashed or edited studies "
             "resumable (repro.cache)",
    )
    run.add_argument(
        "--server", default=None, metavar="URL",
        help="submit the (post---set) spec to a running study service "
             "(repro-snip serve) instead of executing locally; streams "
             "events and fetches the byte-identical artifact for --out",
    )
    run.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="registry-named workload to run the grid on "
             "(default: the spec's axes.scenarios, i.e. paper-roadside)",
    )
    run.add_argument(
        "--scenario-option", dest="scenario_options", action="append",
        type=_override, default=[], metavar="KEY=VALUE",
        help="factory option for --scenario (repeatable), e.g. "
             "--scenario-option 'peaks=[8, 18]' "
             "--scenario-option ratio=12",
    )
    run.add_argument(
        "--gate", type=_tolerance, default=None, metavar="TOL",
        help="agreement gate: exit 1 if any paired delta CI excludes "
             "zero beyond TOL (requires a study with >= 2 engines)",
    )
    run_progress = run.add_mutually_exclusive_group()
    run_progress.add_argument(
        "--no-progress", action="store_true",
        help="suppress the streaming per-cell progress lines",
    )
    run_progress.add_argument(
        "--progress", action="store_true",
        help="force streaming progress lines even for study kinds that "
             "default to quiet (per-node lines for network studies); "
             "streams through imap on any transport",
    )
    run.add_argument(
        "--emit-spec", default=None, metavar="PATH",
        help="write the effective (post---set) spec to PATH and exit",
    )

    sub.add_parser("gain", help="the Fig. 4 rush-hour gain surface")

    lifetime = sub.add_parser(
        "lifetime", help="battery lifetime implied by probing budgets"
    )
    lifetime.add_argument(
        "--capacity-mah", type=float, default=2500.0,
        help="battery capacity in mAh",
    )
    lifetime.add_argument(
        "--divisors", type=float, nargs="+",
        default=[10000.0, 1000.0, 100.0, 10.0],
        help="Phi_max divisors to tabulate (Phi_max = Tepoch/divisor)",
    )

    lint = sub.add_parser(
        "lint",
        help="static invariant checks: determinism, registry/CLI "
             "consistency, worker safety (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", dest="fmt", default="table", choices=LINT_FORMATS,
        help="findings rendering: aligned table, JSON document, or "
             "GitHub workflow annotations",
    )
    lint.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report artifact (.json or .csv by extension)",
    )
    lint.add_argument(
        "--examples", default=None, metavar="DIR",
        help="directory of StudySpec JSON documents validated by the "
             "spec-consistency rule (default: ./examples when present; "
             "--no-examples skips)",
    )
    lint.add_argument(
        "--no-examples", action="store_true",
        help="skip example-spec validation",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    worker = sub.add_parser(
        "worker",
        help="file-queue worker: claim and execute shard tickets from a "
             "queue directory (the serve side of transport=file-queue)",
    )
    worker.add_argument(
        "--queue", required=True, metavar="DIR",
        help="the shared queue directory (created if missing)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECS",
        help="seconds between queue scans when idle (default: 0.2)",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="SECS",
        help="exit after this many consecutive idle seconds "
             "(default: serve until stopped)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="drain the queue once and exit instead of serving forever",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP study service: accept StudySpec submissions, stream "
             "per-cell progress, persist results (repro.service)",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="the content-addressed study store directory "
             "(created if missing; restart-safe)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8321, metavar="N",
        help="bind port (default: 8321; 0 = ephemeral)",
    )
    serve.add_argument(
        "--transport", default=None, metavar="NAME",
        help="pin every study to this transport-registry name "
             "(default: each spec's own execution section)",
    )
    serve.add_argument(
        "--transport-option", dest="transport_options", action="append",
        type=_override, default=[], metavar="KEY=VALUE",
        help="per-transport option for the pinned --transport "
             "(repeatable), e.g. --transport-option "
             "queue_dir=/shared/queue",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=10.0, metavar="SECS",
        help="seconds between SSE keep-alive comments on idle event "
             "streams (default: 10)",
    )
    serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="pin every study to this cell-cache directory "
             "(overrides each spec's execution.cache; repro.cache)",
    )
    serve.add_argument(
        "--cache-option", dest="cache_options", action="append",
        type=_override, default=[], metavar="KEY=VALUE",
        help="per-cache option for the pinned --cache (repeatable): "
             "max_bytes, max_age_days, readonly",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain a cell-cache directory (repro.cache)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and total size of a cache directory"
    )
    cache_stats.add_argument(
        "dir", metavar="DIR", help="the cell-cache directory"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="evict entries by age and/or total size"
    )
    cache_gc.add_argument(
        "dir", metavar="DIR", help="the cell-cache directory"
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict oldest entries until the cache fits in N bytes",
    )
    cache_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="evict entries not written or reused for DAYS days",
    )
    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-validate every entry's checksum; corrupt entries are "
             "discarded (their cells re-execute on the next run)",
    )
    cache_verify.add_argument(
        "dir", metavar="DIR", help="the cell-cache directory"
    )
    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    """Print the closed-form Fig. 5/6 series for the requested budget."""
    scenario = paper_roadside_scenario(phi_max_divisor=args.budget_divisor)
    results = evaluate_schedulers(
        scenario.profile,
        scenario.model,
        zeta_targets=args.targets,
        phi_max=scenario.phi_max,
    )
    for metric, label in (("zeta", "zeta (s)"), ("phi", "Phi (s)"), ("rho", "rho")):
        series = {
            name: [getattr(point, metric) for point in points]
            for name, points in results.items()
        }
        print(
            format_series(
                "zeta_target",
                args.targets,
                series,
                title=f"Analysis {label}, Phi_max = Tepoch/{args.budget_divisor:g}",
            )
        )
        print()
    return 0


def _print_budget_tables(
    targets: Sequence[float], epochs: int, divisor: float, sweep
) -> None:
    """Print one budget's three metric tables (plus CIs if replicated)."""
    replicated = sweep.n_replicates > 1
    suffix = f" x {sweep.n_replicates} seeds" if replicated else ""
    for metric, label in (("zeta", "zeta (s)"), ("phi", "Phi (s)"), ("rho", "rho")):
        print(
            format_series(
                "zeta_target",
                targets,
                sweep.series(metric),
                title=(
                    f"Simulation {label}, Phi_max = Tepoch/"
                    f"{divisor:g}, {epochs} epochs{suffix}"
                ),
            )
        )
        print()
        if replicated:
            intervals = sweep.ci_series(metric)
            rows = [
                [target]
                + [format_estimate(intervals[name][index]) for name in intervals]
                for index, target in enumerate(targets)
            ]
            print(
                format_table(
                    ["zeta_target"] + list(intervals),
                    rows,
                    title=(
                        f"{label} 95% confidence intervals, "
                        f"Phi_max = Tepoch/{divisor:g}"
                    ),
                )
            )
            print()


def _print_agreement_tables(agreement: AgreementResult, epochs: int) -> None:
    """Print one candidate engine's per-budget delta tables + summary."""
    baseline = agreement.baseline_engine
    candidate = agreement.candidate_engine
    headers = [
        "zeta_target", "mechanism",
        f"zeta[{baseline}]", f"zeta[{candidate}]", "d_zeta",
        f"Phi[{baseline}]", f"Phi[{candidate}]", "d_Phi",
        "d_probed/epoch",
    ]
    for phi_max in agreement.phi_maxes:
        divisor = DAY / phi_max
        rows = [
            [
                point.zeta_target,
                point.mechanism,
                point.engine_mean("baseline", "mean_zeta"),
                point.engine_mean("candidate", "mean_zeta"),
                format_estimate(point.delta("mean_zeta")),
                point.engine_mean("baseline", "mean_phi"),
                point.engine_mean("candidate", "mean_phi"),
                format_estimate(point.delta("mean_phi")),
                format_estimate(point.delta("probed_per_epoch")),
            ]
            for point in agreement.budget(phi_max)
        ]
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Engine agreement ({candidate} - {baseline}), "
                    f"Phi_max = Tepoch/{divisor:g}, {epochs} epoch(s) "
                    f"x {agreement.n_replicates} paired seeds"
                ),
            )
        )
        print()
    summary = ", ".join(
        f"{metric}={agreement.max_abs_delta(metric):.3f}"
        for metric in AGREEMENT_METRICS
    )
    print(f"max |mean delta| across cells: {summary}")


def _print_network_tables(spec: StudySpec, network) -> None:
    """Print the per-node fleet table and its aggregates."""
    assert spec.network is not None
    rows = [
        [node_id, outcome.contacts,
         outcome.zeta, outcome.phi, outcome.delivery_ratio]
        for node_id, outcome in sorted(network.outcomes.items())
    ]
    print(
        format_table(
            ["node", "contacts", "zeta (s)", "Phi (s)", "delivery"],
            rows,
            title=(
                f"{spec.network.node_factory} fleet: "
                f"{spec.network.commuters} commuters, "
                f"{spec.network.nodes} nodes, {spec.epochs} days"
            ),
        )
    )
    print(f"fleet rho: {network.fleet_rho:.2f}  "
          f"mean delivery: {network.mean_delivery_ratio:.2%}")


def _apply_gate(agreements, tolerance: float) -> int:
    """Check every candidate engine against the agreement gate."""
    violations: List[str] = []
    for agreement in agreements:
        violations.extend(agreement.gate_violations(tolerance))
    if violations:
        for line in violations:
            print(f"GATE VIOLATION: {line}")
        print(f"agreement gate FAILED: {len(violations)} cell(s) beyond "
              f"±{tolerance:g}")
        return 1
    print(f"agreement gate passed: all delta CIs within ±{tolerance:g} of 0")
    return 0


def _show_progress(spec: StudySpec, args: argparse.Namespace) -> bool:
    """Whether ``run`` streams progress lines (fleets opt in with --progress)."""
    return args.progress or (not spec.is_network and not args.no_progress)


def _print_event_line(event: dict, spec: StudySpec) -> None:
    """Print one progress event (:func:`~repro.experiments.sweep.progress_event`).

    Local and ``run --server`` progress both print through here, so the
    two read the same.  A cell line names its scenario label and engine
    only when the study has several.
    """
    total = event["total"]
    prefix = f"[{event['completed']:>{len(str(total))}}/{total}]"
    if event["event"] == "node":
        print(
            f"{prefix} node {event['node']}: "
            f"zeta={event['mean_zeta']:.2f} Phi={event['mean_phi']:.2f}",
            flush=True,
        )
        return
    scenario = f"{event['scenario']} " if len(spec.scenarios) > 1 else ""
    engine = f"{event['engine']:<5} " if len(spec.engines) > 1 else ""
    cached = " (cached)" if event.get("cached") else ""
    print(
        f"{prefix} {scenario}{engine}"
        f"Phi_max=Tepoch/{DAY / event['phi_max']:g} "
        f"zeta_target={event['zeta_target']:g} {event['mechanism']} "
        f"replicate {event['replicate']}: zeta={event['mean_zeta']:.2f} "
        f"Phi={event['mean_phi']:.2f}{cached}",
        flush=True,
    )


def _run_remote(spec: StudySpec, args: argparse.Namespace) -> int:
    """The ``run --server URL`` path: submit, stream, fetch the artifact.

    The server executes the exact spec we would have run locally (the
    post-``--set`` form), so the fetched ``--out`` artifact is
    byte-identical to a local ``run --spec ... --out``.
    """
    from ..service.client import ServiceClient
    from ..service.store import TERMINAL_STATES

    client = ServiceClient(args.server)
    submitted = client.submit(spec)
    study_id = submitted["id"]
    print(f"study {spec.name!r}: {spec.total_runs} runs, "
          f"submitted as {study_id} to {args.server} "
          f"({submitted['state']})")
    show_progress = _show_progress(spec, args)
    final = submitted["state"]
    error = submitted.get("error")
    for event in client.stream(study_id):
        kind = event.get("event")
        if kind in TERMINAL_STATES:
            final = kind
            error = event.get("error")
        elif kind in ("cell", "node") and show_progress:
            _print_event_line(event, spec)
    if show_progress:
        print()
    if final != "done":
        detail = f": {error}" if error else ""
        print(f"study {study_id} {final}{detail}", file=sys.stderr)
        return 1
    if spec.out:
        fmt = "csv" if spec.out.endswith(".csv") else "json"
        text = client.result_text(study_id, fmt=fmt)
        with open(spec.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {spec.out}")
    print(f"study {study_id} done")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute a StudySpec: the one entry point for every study."""
    spec = StudySpec.load(args.spec) if args.spec else StudySpec()
    overrides = dict(args.overrides)
    if args.jobs is not None:
        overrides["execution.jobs"] = args.jobs
    if args.transport is not None:
        overrides["execution.transport"] = args.transport
    if args.cache is not None:
        overrides["execution.cache"] = args.cache
    if args.out is not None:
        overrides["outputs.out"] = args.out
    scenario_entry = _scenario_entry(args)
    if scenario_entry is not None:
        overrides["axes.scenarios"] = [scenario_entry]
    if overrides:
        spec = spec.with_overrides(overrides)
    if args.emit_spec:
        spec.save(args.emit_spec)
        print(f"wrote spec {args.emit_spec}")
        return 0
    if args.server is not None:
        if args.gate is not None:
            print("--gate is not supported with --server: fetch the "
                  "document and gate locally", file=sys.stderr)
            return 2
        return _run_remote(spec, args)

    # `run` honours the spec's whole execution section: the transport
    # name (explicit or derived from jobs), batch size, and options all
    # resolve through the registry.
    executor = spec.build_transport()
    show_progress = _show_progress(spec, args)
    progress = None
    if show_progress:
        def progress(shard, result, completed, total) -> None:
            _print_event_line(
                progress_event(shard, result, completed, total), spec
            )

    print(f"study {spec.name!r}: {spec.total_runs} runs, "
          f"{spec.jobs} job(s), transport {spec.resolved_transport!r}")
    try:
        study = run_study(spec, executor=executor, progress=progress)
    finally:
        executor.close()
    if show_progress:
        print()

    if spec.is_network:
        _print_network_tables(spec, study.network)
    else:
        # Multi-scenario studies key grids/agreements "engine@label";
        # iterating the result mappings covers both shapes, with a
        # scenario banner separating the per-workload tables.
        if len(spec.engines) >= 2:
            for key, agreement in study.agreements.items():
                if "@" in key:
                    print(f"scenario: {key.split('@', 1)[1]}")
                    print()
                _print_agreement_tables(agreement, spec.epochs)
                print()
        else:
            for grid in study.grids.values():
                if grid.scenario is not None:
                    print(f"scenario: {grid.scenario}")
                    print()
                for divisor, phi_max in zip(
                    spec.budget_divisors(), spec.phi_maxes
                ):
                    _print_budget_tables(
                        spec.zeta_targets, spec.epochs, divisor,
                        grid.budget(phi_max),
                    )
    if spec.out:
        _write_output(spec.out, study)
    if spec.cache is not None:
        # The greppable resume diagnostic (asserted by the CI cache
        # smoke): how much of the study came from the cell cache.
        print(f"cache: {study.cells_cached} hit(s), "
              f"{study.cells_computed} computed")
    _report_pool(spec, executor)
    if args.gate is not None:
        if not study.agreements:
            print("--gate requires a study listing >= 2 engines")
            return 2
        return _apply_gate(study.agreements.values(), args.gate)
    return 0


def cmd_gain(_args: argparse.Namespace) -> int:
    """Print the Fig. 4 rush-hour gain surface."""
    fractions = [x / 100.0 for x in range(5, 51, 5)]
    ratios = [float(r) for r in range(2, 21, 2)]
    surface = rush_hour_gain_surface(fractions, ratios)
    rows = [
        [f"{ratio:g}"] + row
        for ratio, row in zip(ratios, surface)
    ]
    headers = ["frh/fother"] + [f"{fraction:.2f}" for fraction in fractions]
    print(
        format_table(
            headers,
            rows,
            title="Phi_AT / Phi_rh over (Trh/Tepoch columns, rate-ratio rows)",
        )
    )
    return 0


def cmd_lifetime(args: argparse.Namespace) -> int:
    """Tabulate node lifetime for a set of probing budgets."""
    from ..radio.lifetime import Battery, LifetimeModel

    model = LifetimeModel(battery=Battery(capacity_mah=args.capacity_mah))
    rows = []
    for divisor in args.divisors:
        phi_max = DAY / require_positive("divisor", divisor)
        rows.append(
            [
                f"Tepoch/{divisor:g}",
                phi_max,
                model.lifetime_days(phi_max),
                model.lifetime_years(phi_max),
            ]
        )
    print(
        format_table(
            ["budget", "Phi_max (s/day)", "lifetime (days)", "lifetime (years)"],
            rows,
            title=f"Node lifetime vs probing budget ({args.capacity_mah:g} mAh)",
        )
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static invariant checker; exit 1 on any finding.

    The CI gate: ``python -m repro lint src tests --format github``
    annotates the PR diff and fails the build when a determinism,
    registry-consistency, or worker-safety invariant is violated
    (:mod:`repro.analysis`).  Exemptions need an annotated
    ``# lint: allow[rule] -- reason`` pragma at the site.
    """
    from ..analysis import all_rules, run_lint

    if args.list_rules:
        rows = [
            [rule.rule_id, rule.category, rule.description]
            for rule in all_rules()
        ]
        print(format_table(["rule", "category", "description"], rows,
                           title="repro lint rule catalogue"))
        return 0
    report = run_lint(
        args.paths,
        examples_dir="" if args.no_examples else args.examples,
    )
    if args.fmt == "json":
        print(report.to_json(), end="")
    elif args.fmt == "github":
        print(report.render_github())
    else:
        print(report.render_table())
    if args.out:
        _write_output(args.out, report)
    return 0 if report.ok else 1


def cmd_worker(args: argparse.Namespace) -> int:
    """Serve a file-queue directory: the worker half of the transport.

    Claims shard tickets (atomic rename), executes them with pool-worker
    semantics — mechanisms/engines re-resolve by registry name on this
    side — and publishes outcome pickles for the coordinator.  Exits on
    ``--once``, ``--max-idle``, or a ``stop`` file in the queue.
    """
    from .worker import worker_loop

    processed = worker_loop(
        args.queue,
        poll_interval=args.poll,
        max_idle=args.max_idle,
        once=args.once,
        handle_signals=True,
    )
    print(f"worker processed {processed} ticket(s)")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain a cell-cache directory (repro.cache).

    ``stats`` prints the entry count and byte total, ``gc`` evicts by
    age and/or size, and ``verify`` re-validates every entry's
    checksum, discarding corrupt entries so their cells re-execute on
    the next cached run.  A directory without ``meta.json`` is not a
    cache and is left untouched; ``gc`` bounds go through the same
    validation as a spec's ``cache_options``.
    """
    from ..cache.store import CellCache, validate_cache_options

    if not os.path.isfile(os.path.join(args.dir, "meta.json")):
        raise ConfigurationError(
            f"{args.dir!r} is not a cell cache (no meta.json)"
        )
    cache = CellCache(args.dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache {stats['root']}: {stats['entries']} entr(ies), "
              f"{stats['total_bytes']} bytes "
              f"(schema v{stats['schema_version']})")
        return 0
    if args.cache_command == "gc":
        bounds = validate_cache_options(
            {
                key: value
                for key, value in (
                    ("max_bytes", args.max_bytes),
                    ("max_age_days", args.max_age_days),
                )
                if value is not None
            },
            where="cache gc",
        )
        if not bounds:
            print("cache gc needs --max-bytes and/or --max-age-days",
                  file=sys.stderr)
            return 2
        report = cache.gc(**bounds)
        print(f"cache gc: removed {report['removed']} entr(ies) "
              f"({report['removed_bytes']} bytes), kept "
              f"{report['kept']} ({report['kept_bytes']} bytes)")
        return 0
    report = cache.verify()
    print(f"cache verify: {report['ok']}/{report['entries']} entr(ies) "
          f"ok, {report['corrupt_removed']} corrupt entr(ies) removed")
    return 0 if report["corrupt_found"] == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP study service until SIGTERM/SIGINT.

    The long-running half of the serving stack
    (:mod:`repro.service`): submissions persist in the
    content-addressed ``--store`` directory, a single scheduler thread
    executes them FIFO (over the pinned ``--transport`` when given),
    and every connected client streams per-cell progress.  A restarted
    server re-lists finished studies and marks interrupted ones failed.
    """
    from ..service.app import serve

    return serve(
        args.store,
        host=args.host,
        port=args.port,
        transport=args.transport,
        transport_options=dict(args.transport_options) or None,
        heartbeat=args.heartbeat,
        cache=args.cache,
        cache_options=dict(args.cache_options) or None,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-snip`` console script."""
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "run": cmd_run,
        "gain": cmd_gain,
        "lifetime": cmd_lifetime,
        "lint": cmd_lint,
        "worker": cmd_worker,
        "serve": cmd_serve,
        "cache": cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        # User-input errors (a missing or unreadable spec file, a bad
        # --set path, an unknown registry name) are diagnostics, not
        # crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
