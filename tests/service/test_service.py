"""End-to-end HTTP tests: submit, stream, fetch, cancel, restart.

These run a real :class:`StudyServer` on an ephemeral port and speak
to it through the real ``urllib`` client — the full wire format
(JSON bodies, structured 400s, SSE framing) is under test, including
the acceptance path: POST a spec, stream at least one per-cell event,
and fetch an artifact byte-identical to a direct ``run_study``.
"""

from __future__ import annotations

import builtins
import json
import multiprocessing
import socket
import threading

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import SerialExecutor
from repro.experiments.spec import StudyDocument, run_study
from repro.service.app import StudyService, make_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import StudyStore
from service_specs import make_tiny_spec


class TestSubmitAndFetch:
    def test_post_stream_fetch_matches_direct_run(self, client):
        spec = make_tiny_spec()
        submitted = client.submit(spec)
        assert submitted["queued"] is True
        events = list(client.stream(submitted["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert "cell" in kinds  # >= 1 per-cell progress event
        assert kinds[-1] == "done"
        served = client.result_text(submitted["id"])
        assert served == run_study(spec).to_json()
        document = client.result(submitted["id"])
        assert isinstance(document, StudyDocument)
        assert len(document.cells()) == spec.total_runs

    def test_cell_events_carry_grid_coordinates(self, client):
        submitted = client.submit(make_tiny_spec())
        cells = [
            event for event in client.stream(submitted["id"])
            if event["event"] == "cell"
        ]
        cell = cells[0]
        assert cell["mechanism"] == "SNIP-RH"
        assert cell["engine"] == "fast"
        assert cell["zeta_target"] == 16.0
        assert cell["completed"] == 1 and cell["total"] == 1
        assert "mean_zeta" in cell and "mean_phi" in cell

    def test_status_includes_result_document_when_done(self, client):
        submitted = client.submit(make_tiny_spec())
        client.wait(submitted["id"])
        status = client.status(submitted["id"])
        assert status["state"] == "done"
        assert status["result"]["study"]["name"] == "svc-tiny"

    def test_identical_resubmission_returns_cached_study(self, client):
        spec = make_tiny_spec()
        first = client.submit(spec)
        client.wait(first["id"])
        second = client.submit(spec)
        assert second["id"] == first["id"]
        assert second["queued"] is False
        assert second["state"] == "done"

    def test_list_studies(self, client):
        client.submit(make_tiny_spec(seed=1))
        client.submit(make_tiny_spec(seed=2))
        listed = client.list_studies()
        assert len(listed) == 2

    def test_event_stream_replays_for_late_subscribers(self, client):
        submitted = client.submit(make_tiny_spec())
        client.wait(submitted["id"])  # study long finished
        events = list(client.stream(submitted["id"]))
        assert [event["event"] for event in events][-1] == "done"
        assert any(event["event"] == "cell" for event in events)


class TestValidationAndErrors:
    def test_invalid_spec_key_is_structured_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"name": "bad", "scenario": {"bogus_key": 1}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["type"] == "ConfigurationError"
        assert "bogus_key" in excinfo.value.payload["message"]

    @pytest.mark.parametrize("field", ["zeta_targets", "phi_maxes"])
    def test_non_finite_value_is_400_and_never_queued(self, client, field):
        # The client's json.dumps writes NaN/Infinity literals, which the
        # server's json.loads accepts: the spec itself must refuse them.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"name": "bad", "scenario": {field: [bad]}})
            assert excinfo.value.status == 400
            assert excinfo.value.payload["type"] == "ConfigurationError"
            assert field in excinfo.value.payload["message"]
        assert client.list_studies() == []
        assert client.healthz()["queue_depth"] == 0

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("scenario", "epochs", True),
            ("axes", "replicates", True),
            ("axes", "replicate_seeds", [7.9]),
            ("execution", "jobs", True),
            ("execution", "batch_size", True),
        ],
    )
    def test_non_integer_count_is_400_and_never_queued(
        self, client, section, field, value
    ):
        # JSON true is a Python bool, an int subclass: the spec must
        # refuse it (and float seeds) instead of coercing silently.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"name": "bad", section: {field: value}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["type"] == "ConfigurationError"
        assert field in excinfo.value.payload["message"]
        assert client.list_studies() == []
        assert client.healthz()["queue_depth"] == 0

    def test_non_object_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/studies", body=None)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_bad_content_length_is_structured_400(self, live_server, length):
        # Written by hand: urllib always sends a well-formed length.  The
        # socket timeout makes a server that hangs on the read fail the
        # test instead of blocking it.
        host, port = live_server.server_address[:2]
        request = (
            f"POST /studies HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode("ascii")
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        error = json.loads(body)["error"]
        assert error["type"] == "ConfigurationError"
        assert "Content-Length" in error["message"]
        assert repr(length) in error["message"]

    def test_unknown_study_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfeedfeedfeed")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_result_before_done_is_404(self, client, live_server):
        spec = make_tiny_spec()
        record, _ = live_server.service.store.submit(spec)  # never scheduled
        with pytest.raises(ServiceError) as excinfo:
            client.result_text(record.study_id)
        assert excinfo.value.status == 404

    def test_failing_study_reports_failed_with_error(
        self, client, monkeypatch
    ):
        # The server runs in-process, so a runtime failure can be
        # injected at the scheduler's run_study seam; the study must be
        # marked failed (with the error) without killing the server.
        def boom(spec, **kwargs):
            raise RuntimeError("injected execution failure")

        monkeypatch.setattr("repro.service.scheduler.run_study", boom)
        submitted = client.submit(make_tiny_spec())
        events = list(client.stream(submitted["id"]))
        assert events[-1]["event"] == "failed"
        assert "injected execution failure" in events[-1]["error"]
        status = client.status(submitted["id"])
        assert status["state"] == "failed"
        assert "injected execution failure" in status["error"]
        assert client.healthz()["scheduler_alive"] is True


class TestCancel:
    def test_cancel_unknown_study_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("feedfeedfeedfeed")
        assert excinfo.value.status == 404

    def test_cancel_queued_study(self, client, live_server):
        # Submit directly to the store so the scheduler never sees it
        # running; then cancel over HTTP.
        record, _ = live_server.service.store.submit(make_tiny_spec())
        live_server.service.scheduler._cancel_requested.add(record.study_id)
        cancelled = client.cancel(record.study_id)
        assert cancelled["state"] in ("queued", "cancelled")

    def test_cancel_finished_study_is_noop(self, client):
        submitted = client.submit(make_tiny_spec())
        client.wait(submitted["id"])
        after = client.cancel(submitted["id"])
        assert after["state"] == "done"


class TestHealthz:
    def test_healthz_shape(self, client):
        submitted = client.submit(make_tiny_spec())
        client.wait(submitted["id"])
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["scheduler_alive"] is True
        assert health["queue_depth"] == 0
        assert health["studies"]["done"] == 1
        assert health["transport"] is None

    def test_healthz_reads_no_study_file(self, client, live_server, monkeypatch):
        submitted = client.submit(make_tiny_spec())
        client.wait(submitted["id"])
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        health = live_server.service.healthz()
        monkeypatch.undo()
        assert health["studies"]["done"] == 1
        assert [path for path in opened if path.endswith("state.json")] == []


class TestServerLifetime:
    def test_close_before_serving_returns(self, tmp_path):
        # socketserver's shutdown() waits for a serve_forever loop that
        # never started; close() must not ask it of an idle server.
        server = make_server(str(tmp_path / "store"))
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert not server.service.scheduler.is_alive()

    def test_pool_server_keeps_one_pool_and_close_stops_it(self, tmp_path):
        before = set(multiprocessing.active_children())
        server = make_server(str(tmp_path / "store"), transport="pool")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            for seed in (1, 2):
                spec = make_tiny_spec(
                    seed=seed, zeta_targets=(16.0, 24.0), jobs=2
                )
                study_id = client.submit(spec)["id"]
                assert list(client.stream(study_id))[-1]["event"] == "done"
                # Both studies ran on the same two live workers.
                assert len(set(multiprocessing.active_children()) - before) == 2
                assert client.result_text(study_id) == run_study(
                    spec, executor=SerialExecutor()
                ).to_json()
        finally:
            server.close()
            thread.join(timeout=10)
        assert not set(multiprocessing.active_children()) - before


class TestRestartSemantics:
    def test_restart_preserves_done_and_fails_interrupted(self, tmp_path):
        store_dir = str(tmp_path / "store")
        finished_spec = make_tiny_spec(seed=1)

        first = make_server(store_dir)
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        try:
            done_client = ServiceClient(first.url, timeout=30.0)
            done_id = done_client.submit(finished_spec)["id"]
            done_client.wait(done_id)
        finally:
            first.close()
            thread.join(timeout=10)

        # Simulate a crash mid-run: a study left in state "running".
        store = StudyStore(store_dir)
        interrupted, _ = store.submit(make_tiny_spec(seed=2))
        store.mark_running(interrupted.study_id)

        second = make_server(store_dir)
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(second.url, timeout=30.0)
            by_id = {rec["id"]: rec for rec in client.list_studies()}
            assert by_id[done_id]["state"] == "done"
            assert by_id[interrupted.study_id]["state"] == "failed"
            assert "interrupted" in by_id[interrupted.study_id]["error"]
            # The finished artifact still serves byte-identically.
            assert client.result_text(done_id) == run_study(
                finished_spec
            ).to_json()
            # And its event stream synthesizes a terminal event.
            events = list(client.stream(done_id))
            assert events[-1]["event"] == "done"
        finally:
            second.close()
            thread.join(timeout=10)


class TestConcurrentSubmitters:
    def test_n_threads_each_get_byte_identical_artifacts(self, client):
        specs = [make_tiny_spec(seed=seed) for seed in (11, 22, 33, 44)]
        results: dict = {}
        errors: list = []

        def submit_and_fetch(spec) -> None:
            try:
                submitted = client.submit(spec)
                client.wait(submitted["id"])
                results[spec.seed] = client.result_text(submitted["id"])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_and_fetch, args=(spec,))
            for spec in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == len(specs)
        # No cross-study leakage: each artifact matches its own direct
        # run exactly, byte for byte.
        for spec in specs:
            assert results[spec.seed] == run_study(spec).to_json()
        assert len(set(results.values())) == len(specs)

    def test_store_keeps_studies_separate(self, client, live_server):
        specs = [make_tiny_spec(seed=seed) for seed in (7, 8)]
        ids = []
        for spec in specs:
            submitted = client.submit(spec)
            ids.append(submitted["id"])
            client.wait(submitted["id"])
        store = live_server.service.store
        for spec, study_id in zip(specs, ids):
            reloaded = store.load_spec(study_id)
            assert reloaded.seed == spec.seed


def last_event(service: StudyService, study_id: str) -> dict:
    """Block until *study_id*'s event stream closes; its final event."""
    events = [event for event in service.events(study_id) if event is not None]
    return events[-1]


@pytest.fixture
def spec_reads(monkeypatch) -> list:
    """Every study id whose ``spec.json`` the store reads back."""
    reads: list = []
    load_spec = StudyStore.load_spec

    def counting(store, study_id):
        reads.append(study_id)
        return load_spec(store, study_id)

    monkeypatch.setattr(StudyStore, "load_spec", counting)
    return reads


class TestSpecReads:
    """A study runs from the spec parsed at submission."""

    def test_a_submitted_study_never_reads_its_spec_back(
        self, tmp_path, spec_reads
    ):
        service = StudyService(str(tmp_path / "store"))
        service.start()
        try:
            specs = [
                make_tiny_spec(seed=1),
                make_tiny_spec(seed=2, out="cells.csv"),
            ]
            ids = [service.submit(spec.to_dict())[0]["id"] for spec in specs]
            for study_id, spec in zip(ids, specs):
                assert last_event(service, study_id)["event"] == "done"
                assert service.result_text(study_id) == run_study(
                    spec
                ).to_json()
            # The submitted spec still decides the extra CSV artifact.
            assert service.result_text(ids[1], fmt="csv") is not None
            assert service.result_text(ids[0], fmt="csv") is None
        finally:
            service.close()
        assert spec_reads == []

    def test_recovery_reads_each_requeued_spec_once(
        self, tmp_path, spec_reads
    ):
        store_dir = str(tmp_path / "store")
        store = StudyStore(store_dir)
        queued = [store.submit(make_tiny_spec(seed=seed))[0] for seed in (1, 2)]
        service = StudyService(store_dir)
        assert service.start() == []
        try:
            for record in queued:
                assert last_event(service, record.study_id)["event"] == "done"
        finally:
            service.close()
        assert sorted(spec_reads) == sorted(r.study_id for r in queued)

    def test_repeated_replicate_seeds_are_refused_at_submit(self, tmp_path):
        service = StudyService(str(tmp_path / "store"))
        payload = make_tiny_spec().to_dict()
        payload["axes"]["replicate_seeds"] = [4, 9, 4]
        with pytest.raises(ConfigurationError, match=r"repeated: \[4\]"):
            service.submit(payload)
        assert service.store.list() == []
