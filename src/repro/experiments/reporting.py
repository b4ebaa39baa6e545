"""Plain-text tables and series for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output consistent and readable in a
terminal (no plotting dependencies are available offline).
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Mapping, Sequence, Union

Number = Union[int, float]


def format_csv(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as RFC-4180 CSV text (``--out`` files, bench dumps).

    None cells become empty fields; everything else is written with its
    natural ``str`` form.  Shared by
    :meth:`~repro.experiments.spec.StudyResult.to_csv` and
    :meth:`~repro.experiments.agreement.AgreementResult.to_csv` so the
    benches stop hand-rolling tables.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def write_artifact(path: str, result: object) -> None:
    """Write *result* to *path*, picking the format by extension.

    ``.json`` serializes with the result's ``to_json()``, anything else
    with ``to_csv()`` — the one rule shared by the CLI's ``--out``, a
    :class:`~repro.experiments.spec.StudyResult`'s ``save``, and the
    benches, so every artifact on disk follows the same convention.
    """
    text = result.to_json() if path.endswith(".json") else result.to_csv()
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def format_estimate(estimate: object) -> str:
    """Render an interval estimate for a report table.

    A well-replicated :class:`~repro.experiments.stats.IntervalEstimate`
    renders as its usual ``mean ± half_width``; a vacuous one (single
    replicate, infinite half-width) is marked explicitly as
    ``mean [n=1, no CI]`` instead of printing a meaningless ``± inf`` —
    the table analogue of the CSV path's ``_finite_or_none`` rule, so a
    reader can't mistake an unconstrained estimate for a tight one.
    """
    if getattr(estimate, "is_vacuous", False):
        return (
            f"{estimate.mean:.3f} "
            f"[n={estimate.replications}, no CI]"
        )
    return str(estimate)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    materialized: List[List[str]] = []
    for row in rows:
        materialized.append(
            [
                cell if isinstance(cell, str) else
                ("inf" if cell == float("inf") else f"{cell:.3f}")
                if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
    *,
    title: str = "",
) -> str:
    """Render one figure panel: x column plus one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(x_values):
        rows.append([x] + [values[index] for values in series.values()])
    return format_table(headers, rows, title=title)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
    title: str = "",
) -> str:
    """A horizontal ASCII bar chart (used by the Fig. 3 bench)."""
    peak = max(values) if values else 1.0
    label_width = max((len(label) for label in labels), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar_length = 0 if peak == 0 else int(round(width * value / peak))
        lines.append(
            f"{label.rjust(label_width)} | {'#' * bar_length} {value:.1f}"
        )
    return "\n".join(lines)
