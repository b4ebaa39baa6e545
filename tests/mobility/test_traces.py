"""Unit tests for the contact-trace file format and streaming reader."""

import contextlib
import io
import signal

import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.traces import (
    HEADER,
    TraceFileSource,
    detect_trace_format,
    parse_trace_text,
    read_trace,
    stream_contacts,
    write_trace,
)


def sample_trace():
    return ContactTrace(
        [Contact(120.0, 2.5, "phone-17"), Contact(940.2, 1.6, "phone-3")]
    )


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "contacts.trace"
        write_trace(sample_trace(), path)
        loaded = read_trace(path)
        assert len(loaded) == 2
        assert loaded[0].start == pytest.approx(120.0)
        assert loaded[0].length == pytest.approx(2.5)
        assert loaded[0].mobile_id == "phone-17"

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        write_trace(sample_trace(), buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert loaded.total_capacity == pytest.approx(4.1)

    def test_empty_trace_round_trip(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(ContactTrace(), path)
        assert len(read_trace(path)) == 0


class TestParsing:
    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_text("1.0 2.0 m\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_text("# other-format v9\n1.0 2.0\n")

    def test_comments_and_blank_lines_skipped(self):
        text = HEADER + "\n\n# a comment\n1.0 2.0 m\n"
        assert len(parse_trace_text(text)) == 1

    def test_default_mobile_id(self):
        text = HEADER + "\n1.0 2.0\n"
        assert parse_trace_text(text)[0].mobile_id == "mobile"

    def test_non_numeric_time_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_text(HEADER + "\none two m\n")

    def test_wrong_column_count_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_text(HEADER + "\n1.0\n")
        with pytest.raises(TraceFormatError):
            parse_trace_text(HEADER + "\n1.0 2.0 m extra\n")

    def test_end_before_start_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_text(HEADER + "\n5.0 4.0 m\n")

    def test_error_message_contains_line_number(self):
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace_text(HEADER + "\n1.0 2.0 m\nbad row here extra\n")

    def test_unsorted_rows_are_sorted_on_load(self):
        text = HEADER + "\n10.0 11.0 b\n1.0 2.0 a\n"
        trace = parse_trace_text(text)
        assert [c.mobile_id for c in trace] == ["a", "b"]


class TestNonFiniteTimes:
    """NaN compares False both ways, so it once slipped past every
    ``start < 0`` / ``end <= start`` check: now every reader names the
    line of a non-finite time."""

    @pytest.mark.parametrize("row", ["10,nan,m1", "nan,12,m1", "10,inf,m1"])
    def test_csv_rejects_non_finite_times(self, row):
        with pytest.raises(TraceFormatError, match="line 2: contact times must be finite"):
            list(stream_contacts(
                io.StringIO("start,end,mobile_id\n" + row + "\n"), fmt="csv"
            ))

    def test_native_stream_rejects_non_finite_times(self):
        with pytest.raises(TraceFormatError, match="line 3: contact times must be finite"):
            list(stream_contacts(io.StringIO(HEADER + "\n1 2\n10 nan\n")))

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_jsonl_rejects_non_finite_times(self, value):
        text = '{"start": 1, "end": 2}\n{"start": 10, "end": %s}\n' % value
        with pytest.raises(TraceFormatError, match="line 2: contact times must be finite"):
            list(stream_contacts(io.StringIO(text), fmt="jsonl"))

    def test_loader_rejects_non_finite_times(self):
        with pytest.raises(TraceFormatError, match="line 2: contact times must be finite"):
            parse_trace_text(HEADER + "\n10 nan phone\n")


class TestFormatDetection:
    def test_suffix_mapping(self, tmp_path):
        assert detect_trace_format(tmp_path / "a.csv") == "csv"
        assert detect_trace_format(tmp_path / "a.jsonl") == "jsonl"
        assert detect_trace_format(tmp_path / "a.ndjson") == "jsonl"
        assert detect_trace_format(tmp_path / "a.trace") == "native"

    def test_unknown_format_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace format"):
            list(stream_contacts(io.StringIO(""), fmt="xml"))


class TestStreaming:
    def stream(self, text, **kwargs):
        return list(stream_contacts(io.StringIO(text), **kwargs))

    def test_native_streaming_matches_the_loader(self):
        text = HEADER + "\n1.0 2.0 a\n10.0 11.5 b\n"
        contacts = self.stream(text)
        assert [c.mobile_id for c in contacts] == ["a", "b"]
        assert contacts[1].length == pytest.approx(1.5)

    def test_csv_rows_parse_with_and_without_mobile_id(self, tmp_path):
        both = self.stream("start,end,mobile_id\n1,2,bus-4\n", fmt="csv")
        assert both[0].mobile_id == "bus-4"
        bare = self.stream("start,end\n1,2\n", fmt="csv")
        assert bare[0].mobile_id == "mobile"
        # A 20k-row file (one contact a minute) streams every row.
        path = tmp_path / "city.csv"
        path.write_text("start,end,mobile_id\n" + "".join(
            f"{60 * k},{60 * k + 2.5},mobile-{k % 97}\n" for k in range(20_000)
        ))
        assert sum(1 for _ in stream_contacts(path)) == 20_000

    def test_csv_header_is_part_of_the_schema(self):
        with pytest.raises(
            TraceFormatError,
            match="line 1: expected CSV header 'start,end'",
        ):
            self.stream("begin,finish\n1,2\n", fmt="csv")

    def test_csv_column_count_mismatch_names_the_line(self):
        with pytest.raises(
            TraceFormatError, match="line 3: expected 2 columns, got 3"
        ):
            self.stream("start,end\n1,2\n3,4,bus\n", fmt="csv")

    def test_jsonl_rows_parse(self):
        rows = self.stream(
            '{"start": 1, "end": 2, "mobile_id": "tram-9"}\n'
            '{"start": 5, "end": 6}\n',
            fmt="jsonl",
        )
        assert [c.mobile_id for c in rows] == ["tram-9", "mobile"]

    def test_jsonl_missing_key_names_line_and_keys(self):
        with pytest.raises(
            TraceFormatError, match=r"line 2: missing required key\(s\) \['end'\]"
        ):
            self.stream(
                '{"start": 1, "end": 2}\n{"start": 5}\n', fmt="jsonl"
            )

    def test_jsonl_unknown_key_names_the_schema(self):
        with pytest.raises(
            TraceFormatError,
            match=r"line 1: unknown key\(s\) \['stop'\]; "
                  r"schema is start, end, mobile_id",
        ):
            self.stream('{"start": 1, "end": 2, "stop": 3}\n', fmt="jsonl")

    def test_jsonl_invalid_json_names_the_line(self):
        with pytest.raises(TraceFormatError, match="line 2: invalid JSON"):
            self.stream('{"start": 1, "end": 2}\n{oops\n', fmt="jsonl")

    def test_jsonl_boolean_times_rejected(self):
        with pytest.raises(TraceFormatError, match="line 1: non-numeric time"):
            self.stream('{"start": true, "end": 2}\n', fmt="jsonl")

    def test_negative_start_rejected(self, tmp_path):
        with pytest.raises(
            TraceFormatError, match="line 2: contact start must be >= 0"
        ):
            self.stream("start,end\n-1,2\n", fmt="csv")
        # The loader parses native rows with the streaming reader's code.
        path = tmp_path / "negative.trace"
        path.write_text(HEADER + "\n-5 3 m\n")
        with pytest.raises(
            TraceFormatError, match="line 2: contact start must be >= 0"
        ):
            read_trace(path)

    def test_unsorted_rows_rejected_with_both_starts(self):
        with pytest.raises(
            TraceFormatError,
            match="line 3: contact start 5.0 is before the previous "
                  "start 10.0; trace files must be sorted by start time",
        ):
            self.stream("start,end\n10,12\n5,6\n", fmt="csv")

    def test_horizon_stops_the_read_early(self):
        contacts = self.stream(
            "start,end\n1,2\n50,51\n999,1000\n", fmt="csv", horizon=100.0
        )
        assert [c.start for c in contacts] == [1.0, 50.0]

    def test_time_scale_multiplies_both_times(self):
        contacts = self.stream(
            "start,end\n1000,3000\n", fmt="csv", time_scale=0.001
        )
        assert contacts[0].start == pytest.approx(1.0)
        assert contacts[0].length == pytest.approx(2.0)

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            self.stream("start,end\n1,2\n", fmt="csv", time_scale=0.0)


class TestTraceFileSource:
    class Horizon:
        """Duck-typed scenario: just what generate() reads."""

        class Profile:
            epoch_length = 100.0

        profile = Profile()
        epochs = 2

    def source_file(self, tmp_path, text, name="t.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_replay_clips_overlaps(self, tmp_path):
        path = self.source_file(tmp_path, "start,end\n10,20\n15,30\n")
        trace = TraceFileSource(path).generate(self.Horizon(), None)
        assert [(c.start, c.end) for c in trace] == [(10.0, 20.0), (20.0, 30.0)]

    def test_repeat_every_tiles_the_horizon(self, tmp_path):
        path = self.source_file(tmp_path, "start,end\n10,12\n")
        trace = TraceFileSource(path, repeat_every=50.0).generate(
            self.Horizon(), None
        )
        assert [c.start for c in trace] == [10.0, 60.0, 110.0, 160.0]

    def test_contacts_beyond_the_horizon_are_dropped(self, tmp_path):
        path = self.source_file(tmp_path, "start,end\n10,12\n500,600\n")
        trace = TraceFileSource(path).generate(self.Horizon(), None)
        assert [c.start for c in trace] == [10.0]

    def test_validation_is_loud(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown trace format"):
            TraceFileSource("x.csv", fmt="xml")
        with pytest.raises(ConfigurationError, match="repeat_every"):
            TraceFileSource("x.csv", repeat_every=-1.0)

    def test_nan_time_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            TraceFileSource("x.csv", time_scale=float("nan"))
        with pytest.raises(ConfigurationError, match="time_scale"):
            list(stream_contacts(
                io.StringIO("start,end\n1,2\n"), fmt="csv", time_scale=float("nan")
            ))

    def test_nan_repeat_every_fails_instead_of_hanging(self, tmp_path):
        # ``offset >= horizon`` is never true for a NaN period, so an
        # unvalidated replay would loop forever: bound the wait.
        path = self.source_file(tmp_path, "start,end\n10,12\n")
        with _time_limit(10.0), pytest.raises(ConfigurationError, match="repeat_every"):
            TraceFileSource(path, repeat_every=float("nan")).generate(
                self.Horizon(), None
            )


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the enclosed block with TimeoutError after *seconds*."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
