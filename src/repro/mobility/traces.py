"""Contact-trace file format (CRAWDAD-style) with reader and writer.

Real contact traces (e.g. CRAWDAD haggle/imote) are distributed as
whitespace-separated columns of contact start/end times.  We use a
compatible plain-text format so that published traces can be converted
with a one-line awk script and loaded here:

.. code-block:: text

    # repro-contact-trace v1
    # columns: start_seconds end_seconds mobile_id
    120.0 122.5 phone-17
    940.2 941.8 phone-3

Lines starting with ``#`` are comments; the version header is required
so format drift fails loudly instead of parsing garbage.

City-scale inputs come in through the **streaming** path instead:
:func:`stream_contacts` reads native, CSV (``start,end[,mobile_id]``
header row), or JSONL (``{"start": ..., "end": ..., "mobile_id": ...}``
per line) files one line at a time, validates each row strictly with
line numbers in every error, requires rows sorted by start time, and
stops at the simulation horizon — so a multi-gigabyte trace file is
never fully materialized.  :class:`TraceFileSource` packages that
reader as a scenario contact source (the ``"trace-driven"`` entry of
``scenario_factories``) with deterministic chunked replay: optional
time scaling, optional periodic repetition, and overlap clipping so
replayed contacts satisfy the runners' non-overlap invariant.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, TextIO, Tuple, Union

from ..errors import ConfigurationError, TraceFormatError
from ..units import require_positive
from .contact import Contact, ContactTrace

HEADER = "# repro-contact-trace v1"

#: Recognized :func:`stream_contacts` formats (``None`` = by suffix).
TRACE_FORMATS = ("native", "csv", "jsonl")

#: Accepted CSV header rows (column names are part of the schema).
_CSV_HEADERS = ("start,end", "start,end,mobile_id")

#: JSONL row schema: required and optional keys.
_JSONL_REQUIRED = ("start", "end")
_JSONL_OPTIONAL = ("mobile_id",)

PathOrFile = Union[str, "os.PathLike[str]", TextIO]


def write_trace(trace: ContactTrace, destination: PathOrFile) -> None:
    """Serialize *trace* to a file path or text file object."""
    if hasattr(destination, "write"):
        _write_stream(trace, destination)  # type: ignore[arg-type]
        return
    with open(os.fspath(destination), "w", encoding="utf-8") as handle:
        _write_stream(trace, handle)


def read_trace(source: PathOrFile) -> ContactTrace:
    """Parse a trace from a file path or text file object.

    Raises:
        TraceFormatError: on a missing/wrong header or malformed rows.
    """
    if hasattr(source, "read"):
        return _read_stream(source)  # type: ignore[arg-type]
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        return _read_stream(handle)


def parse_trace_text(text: str) -> ContactTrace:
    """Parse a trace from an in-memory string."""
    return _read_stream(io.StringIO(text))


def _write_stream(trace: ContactTrace, stream: TextIO) -> None:
    stream.write(HEADER + "\n")
    stream.write("# columns: start_seconds end_seconds mobile_id\n")
    for contact in trace:
        stream.write(f"{contact.start:.6f} {contact.end:.6f} {contact.mobile_id}\n")


def _read_stream(stream: TextIO) -> ContactTrace:
    """The native-format trace in *stream*, validated row by row like
    :func:`stream_contacts`; rows need not be sorted (the trace sorts)."""
    return ContactTrace(
        [
            Contact(start, end - start, mobile_id)
            for _, start, end, mobile_id in _stream_rows(stream, "native")
        ]
    )


def _check_times(start: float, end: float, line_number: int) -> None:
    """Reject a row whose times are non-finite or whose end is not after
    its start (NaN compares False both ways, so it is checked first)."""
    if not (math.isfinite(start) and math.isfinite(end)):
        raise TraceFormatError(
            f"line {line_number}: contact times must be finite, "
            f"got start {start}, end {end}"
        )
    if end <= start:
        raise TraceFormatError(
            f"line {line_number}: contact end {end} must exceed start {start}"
        )


def detect_trace_format(path: Union[str, "os.PathLike[str]"]) -> str:
    """Infer the trace format from the file suffix.

    ``.csv`` → ``"csv"``, ``.jsonl``/``.ndjson`` → ``"jsonl"``,
    anything else → the native headered format.
    """
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    return "native"


def _parse_native_row(
    line: str, line_number: int
) -> Tuple[float, float, str]:
    parts = line.split()
    if len(parts) not in (2, 3):
        raise TraceFormatError(
            f"line {line_number}: expected 2 or 3 columns, got {len(parts)}"
        )
    try:
        start = float(parts[0])
        end = float(parts[1])
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: non-numeric time") from exc
    mobile_id = parts[2] if len(parts) == 3 else "mobile"
    return start, end, mobile_id


def _parse_csv_row(
    line: str, line_number: int, n_columns: int
) -> Tuple[float, float, str]:
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != n_columns:
        raise TraceFormatError(
            f"line {line_number}: expected {n_columns} columns, got {len(parts)}"
        )
    try:
        start = float(parts[0])
        end = float(parts[1])
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: non-numeric time") from exc
    mobile_id = parts[2] if n_columns == 3 and parts[2] else "mobile"
    return start, end, mobile_id


def _parse_jsonl_row(line: str, line_number: int) -> Tuple[float, float, str]:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise TraceFormatError(
            f"line {line_number}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(record, dict):
        raise TraceFormatError(
            f"line {line_number}: expected a JSON object, "
            f"got {type(record).__name__}"
        )
    missing = sorted(set(_JSONL_REQUIRED) - set(record))
    if missing:
        raise TraceFormatError(
            f"line {line_number}: missing required key(s) {missing}"
        )
    unknown = sorted(set(record) - set(_JSONL_REQUIRED) - set(_JSONL_OPTIONAL))
    if unknown:
        raise TraceFormatError(
            f"line {line_number}: unknown key(s) {unknown}; "
            f"schema is start, end, mobile_id"
        )
    start, end = record["start"], record["end"]
    if isinstance(start, bool) or isinstance(end, bool) or not (
        isinstance(start, (int, float)) and isinstance(end, (int, float))
    ):
        raise TraceFormatError(f"line {line_number}: non-numeric time")
    mobile_id = record.get("mobile_id", "mobile")
    if not isinstance(mobile_id, str) or not mobile_id:
        raise TraceFormatError(
            f"line {line_number}: mobile_id must be a non-empty string"
        )
    return float(start), float(end), mobile_id


def _stream_rows(
    stream: TextIO, fmt: str
) -> Iterator[Tuple[int, float, float, str]]:
    """Yield ``(line_number, start, end, mobile_id)`` rows, strictly."""
    csv_columns = 0
    if fmt == "native":
        first_line = stream.readline()
        if first_line.strip() != HEADER:
            raise TraceFormatError(
                f"missing trace header; expected {HEADER!r}, "
                f"got {first_line.strip()!r}"
            )
        first_data_line = 2
    elif fmt == "csv":
        header = stream.readline().strip()
        if header not in _CSV_HEADERS:
            raise TraceFormatError(
                f"line 1: expected CSV header 'start,end' or "
                f"'start,end,mobile_id', got {header!r}"
            )
        csv_columns = header.count(",") + 1
        first_data_line = 2
    elif fmt == "jsonl":
        first_data_line = 1
    else:
        raise ConfigurationError(
            f"unknown trace format {fmt!r}; known: {sorted(TRACE_FORMATS)}"
        )
    for line_number, raw_line in enumerate(stream, start=first_data_line):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if fmt == "native":
            start, end, mobile_id = _parse_native_row(line, line_number)
        elif fmt == "csv":
            start, end, mobile_id = _parse_csv_row(line, line_number, csv_columns)
        else:
            start, end, mobile_id = _parse_jsonl_row(line, line_number)
        if start < 0:
            raise TraceFormatError(
                f"line {line_number}: contact start must be >= 0, got {start}"
            )
        _check_times(start, end, line_number)
        yield line_number, start, end, mobile_id


def stream_contacts(
    source: PathOrFile,
    *,
    fmt: Optional[str] = None,
    time_scale: float = 1.0,
    horizon: Optional[float] = None,
) -> Iterator[Contact]:
    """Stream contacts from a trace file without materializing it.

    Rows must be sorted by start time (validated; an out-of-order row
    is a :class:`TraceFormatError`), which is what lets a ``horizon``
    cut short the read: iteration ends at the first contact starting at
    or beyond the horizon, so only the simulated window of a city-scale
    file is ever parsed.  ``time_scale`` multiplies every timestamp
    (e.g. ``0.001`` for a trace recorded in milliseconds).

    Args:
        source: file path or open text stream.
        fmt: ``"native"``, ``"csv"``, or ``"jsonl"``; ``None`` infers
            from the path suffix (streams default to ``"native"``).
        time_scale: seconds per input time unit; must be positive.
        horizon: stop once a (scaled) contact starts at/after this.

    Raises:
        TraceFormatError: on any malformed or out-of-order row.
        ConfigurationError: on an unknown ``fmt`` or bad ``time_scale``.
    """
    require_positive("time_scale", time_scale)
    if hasattr(source, "read"):
        yield from _stream_scaled(
            source, fmt or "native", time_scale, horizon  # type: ignore[arg-type]
        )
        return
    resolved = fmt or detect_trace_format(source)
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        yield from _stream_scaled(handle, resolved, time_scale, horizon)


def _stream_scaled(
    stream: TextIO, fmt: str, time_scale: float, horizon: Optional[float]
) -> Iterator[Contact]:
    previous_start = None
    for line_number, start, end, mobile_id in _stream_rows(stream, fmt):
        if previous_start is not None and start < previous_start:
            raise TraceFormatError(
                f"line {line_number}: contact start {start} is before the "
                f"previous start {previous_start}; trace files must be "
                f"sorted by start time for streaming replay"
            )
        previous_start = start
        scaled_start = start * time_scale
        if horizon is not None and scaled_start >= horizon:
            return
        yield Contact(scaled_start, (end - start) * time_scale, mobile_id)


@lru_cache(maxsize=32)
def _file_sha256(path: str, size: int, mtime_ns: int) -> str:
    """Hex ``sha256`` of the file at *path*, memoized per stat stamp."""
    del size, mtime_ns  # memo key only: a changed stamp re-reads the file
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceFileSource:
    """Scenario contact source replaying a trace file deterministically.

    The file is re-streamed on every ``generate`` call (never read past
    the horizon).  ``generate`` itself keeps nothing, but the vector
    engine memoizes generated traces per process, keyed on
    :meth:`file_stamp` as well as on these fields, and the cell cache
    keys file-backed cells on :meth:`file_sha256`, so an edited file is
    read again and never replays a stale outcome.  Contacts are clipped
    against each other so the replayed trace satisfies the runners'
    non-overlap invariant: a contact starting inside its predecessor is
    deferred to the predecessor's end, and dropped if wholly swallowed.  With
    ``repeat_every`` set, the file is replayed again at ``t + k *
    repeat_every`` until the horizon is covered — a day-long recording
    can drive a fortnight-long study.

    The replay depends only on the file contents and these fields —
    never on the RNG streams — so every engine sees the identical
    trace for a given scenario.
    """

    path: str
    fmt: Optional[str] = None
    time_scale: float = 1.0
    repeat_every: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fmt is not None and self.fmt not in TRACE_FORMATS:
            raise ConfigurationError(
                f"unknown trace format {self.fmt!r}; "
                f"known: {sorted(TRACE_FORMATS)}"
            )
        require_positive("time_scale", self.time_scale)
        if self.repeat_every is not None:
            require_positive("repeat_every", self.repeat_every)

    def file_stamp(self) -> Optional[Tuple[int, int]]:
        """``(st_size, st_mtime_ns)`` of the file, or None when it cannot
        be stat'ed (reading it then raises the real error)."""
        try:
            info = os.stat(self.path)
        except OSError:
            return None
        return (info.st_size, info.st_mtime_ns)

    def file_sha256(self) -> Optional[str]:
        """Hex ``sha256`` of the file's bytes, read once per
        :meth:`file_stamp`; None when the file cannot be read."""
        stamp = self.file_stamp()
        if stamp is None:
            return None
        try:
            return _file_sha256(os.path.abspath(self.path), *stamp)
        except OSError:
            return None

    def generate(self, scenario, streams) -> ContactTrace:
        """Replay the file over the scenario horizon (streams unused)."""
        del streams  # exogenous workload: identical for every seed
        horizon = scenario.epochs * scenario.profile.epoch_length
        contacts: List[Contact] = []
        previous_end = 0.0
        cycle = 0
        while True:
            offset = cycle * self.repeat_every if self.repeat_every else 0.0
            if offset >= horizon:
                break
            for contact in stream_contacts(
                self.path,
                fmt=self.fmt,
                time_scale=self.time_scale,
                horizon=horizon - offset,
            ):
                begin = max(contact.start + offset, previous_end)
                end = contact.end + offset
                if begin >= horizon or end <= begin:
                    continue
                contacts.append(Contact(begin, end - begin, contact.mobile_id))
                previous_end = end
            cycle += 1
            if self.repeat_every is None:
                break
        return ContactTrace(contacts)
