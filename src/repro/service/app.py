"""The HTTP surface of the study service (stdlib ``http.server`` only).

+-----------------------------+--------------------------------------------+
| endpoint                    | behaviour                                  |
+=============================+============================================+
| ``POST /studies``           | JSON StudySpec body → study id (201 new,   |
|                             | 200 existing); strict ``from_dict``        |
|                             | validation errors come back as structured  |
|                             | 400s naming the offending key.             |
+-----------------------------+--------------------------------------------+
| ``GET /studies``            | every stored study, submission order.      |
+-----------------------------+--------------------------------------------+
| ``GET /studies/{id}``       | status; includes the loadable              |
|                             | StudyDocument once done.                   |
+-----------------------------+--------------------------------------------+
| ``GET /studies/{id}/events``| server-sent per-cell progress (one         |
|                             | ``data:`` line per completed run, ``:``    |
|                             | keep-alive comments while idle).  Live     |
|                             | studies and the 64 newest finished ones    |
|                             | replay from the start; older ones stream   |
|                             | only their terminal event.                 |
+-----------------------------+--------------------------------------------+
| ``GET /studies/{id}/result``| the exact persisted artifact bytes         |
|                             | (``?format=csv`` when the spec asked for   |
|                             | CSV) — byte-identical to ``run --out``.    |
+-----------------------------+--------------------------------------------+
| ``DELETE /studies/{id}``    | cancel (queued: immediate; running: at the |
|                             | next completed cell).                      |
+-----------------------------+--------------------------------------------+
| ``GET /healthz``            | queue depth, active study, per-state       |
|                             | counts, scheduler liveness, file-queue     |
|                             | backlog when one is pinned.                |
+-----------------------------+--------------------------------------------+

:class:`StudyService` is the transport-free facade (store + scheduler)
the HTTP handler delegates to — tests can drive it directly;
:func:`make_server` binds it to a :class:`~http.server.ThreadingHTTPServer`
(one thread per connection, so a slow SSE subscriber never blocks a
submitter); :func:`serve` is the blocking entry point behind
``python -m repro serve``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigurationError, ReproError
from ..experiments.spec import StudySpec
from ..experiments.transport import QUEUE_SUBDIRS
from .scheduler import StudyScheduler
from .store import StudyStore

__all__ = ["StudyServer", "StudyService", "make_server", "serve"]


class StudyService:
    """The HTTP-free application core: one store plus one scheduler.

    Every endpoint is a thin translation onto a method here, so the
    whole behaviour — submission idempotency, cancellation, restart
    semantics — is testable without opening a socket.
    """

    def __init__(
        self,
        store_dir: str,
        *,
        transport: Optional[str] = None,
        transport_options: Optional[Mapping[str, Any]] = None,
        cache: Optional[str] = None,
        cache_options: Optional[Mapping[str, Any]] = None,
        heartbeat: float = 10.0,
    ) -> None:
        """Open the store and build (but do not start) the scheduler."""
        self.store = StudyStore(store_dir)
        self.scheduler = StudyScheduler(
            self.store,
            transport=transport,
            transport_options=transport_options,
            cache=cache,
            cache_options=cache_options,
        )
        self.heartbeat = heartbeat
        self.started_at = time.time()

    def start(self) -> list:
        """Recover the store and start executing; see scheduler.start."""
        return self.scheduler.start()

    def close(self) -> None:
        """Stop the scheduler (an active study is marked cancelled)."""
        self.scheduler.close()

    # ------------------------------------------------------------------
    # endpoint cores
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """``POST /studies``: validate, persist, queue.

        Returns ``(body, created)`` where *body* is the response dict
        and *created* says whether this submission entered the queue
        (HTTP 201) or hit an existing study (HTTP 200).  Invalid specs
        raise :class:`~repro.errors.ConfigurationError` — the handler
        turns that into the structured 400.
        """
        spec = StudySpec.from_dict(dict(payload))
        record, queued = self.store.submit(spec)
        if queued:
            self.scheduler.submit(record.study_id, spec)
        body = record.to_dict()
        body["queued"] = queued
        return body, queued

    def status(self, study_id: str) -> Optional[Dict[str, Any]]:
        """``GET /studies/{id}``: the record, plus the document when done."""
        record = self.store.get(study_id)
        if record is None:
            return None
        body = record.to_dict()
        if record.state == "done":
            body["result"] = json.loads(self.store.result_text(study_id))
        return body

    def list_studies(self) -> Dict[str, Any]:
        """``GET /studies``: every stored study, submission order."""
        return {
            "studies": [record.to_dict() for record in self.store.list()]
        }

    def cancel(self, study_id: str) -> Optional[Dict[str, Any]]:
        """``DELETE /studies/{id}``: cancel; None when unknown."""
        record = self.scheduler.cancel(study_id)
        return None if record is None else record.to_dict()

    def events(self, study_id: str) -> Optional[Iterator[Optional[dict]]]:
        """``GET /studies/{id}/events``: the event stream, or None."""
        log = self.scheduler.events(study_id)
        if log is None:
            return None
        return log.stream(heartbeat=self.heartbeat)

    def result_text(
        self, study_id: str, *, fmt: str = "json"
    ) -> Optional[str]:
        """``GET /studies/{id}/result``: exact artifact bytes, or None."""
        record = self.store.get(study_id)
        if record is None or record.state != "done":
            return None
        try:
            return self.store.result_text(study_id, fmt=fmt)
        except FileNotFoundError:
            return None

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness and load in one JSON object."""
        body: Dict[str, Any] = {
            "status": "ok" if self.scheduler.is_alive() else "degraded",
            "uptime": time.time() - self.started_at,
            "scheduler_alive": self.scheduler.is_alive(),
            "queue_depth": self.scheduler.queue_depth,
            "active": self.scheduler.active,
            "studies": self.store.counts(),
            "transport": self.scheduler.transport,
            "cache": self.scheduler.cache,
        }
        queue_dir = self.scheduler.transport_options.get("queue_dir")
        if queue_dir:
            body["workers"] = _queue_backlog(str(queue_dir))
        return body


def _queue_backlog(queue_dir: str) -> Dict[str, int]:
    """Pending/claimed ticket counts for a pinned file-queue directory.

    The closest thing to worker liveness the file protocol offers: a
    growing ``claim`` count with a draining ``enqueue`` count means
    workers are alive and pulling.
    """
    backlog = {}
    for subdir in QUEUE_SUBDIRS[:2]:  # enqueue, claim
        try:
            backlog[subdir] = len(os.listdir(os.path.join(queue_dir, subdir)))
        except OSError:
            backlog[subdir] = 0
    return backlog


_STUDY_ID_CHARS = frozenset("0123456789abcdef")


def _split_study_path(path: str) -> Optional[Tuple[str, Optional[str]]]:
    """``/studies/{id}[/sub]`` → ``(id, sub)``; None when malformed."""
    parts = [part for part in path.split("/") if part]
    if len(parts) < 2 or len(parts) > 3 or parts[0] != "studies":
        return None
    study_id = parts[1]
    if not study_id or not set(study_id) <= _STUDY_ID_CHARS:
        return None
    return study_id, (parts[2] if len(parts) == 3 else None)


class _StudyRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the :class:`StudyService` facade."""

    protocol_version = "HTTP/1.1"
    server: "StudyServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter."""

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        data = (json.dumps(body, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(
        self, status: int, kind: str, message: str
    ) -> None:
        self._send_json(
            status, {"error": {"type": kind, "message": message}}
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the stream cannot be
            # resynchronised for a next request on this connection.
            self.close_connection = True
            raise ConfigurationError(
                f"Content-Length must be a non-negative integer, "
                f"got {header!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigurationError("empty request body (expected JSON)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"request body is not valid JSON: {exc}")

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def do_POST(self) -> None:
        """``POST /studies``."""
        service = self.server.service
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/studies":
            self._send_error_json(404, "NotFound", f"no route {parsed.path!r}")
            return
        try:
            payload = self._read_json_body()
            if not isinstance(payload, dict):
                raise ConfigurationError(
                    "request body must be a JSON object (a StudySpec)"
                )
            body, created = service.submit(payload)
        except ReproError as exc:
            self._send_error_json(400, type(exc).__name__, str(exc))
            return
        self._send_json(201 if created else 200, body)

    def do_GET(self) -> None:
        """``GET /studies[...]`` and ``GET /healthz``."""
        service = self.server.service
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, service.healthz())
            return
        if path == "/studies":
            self._send_json(200, service.list_studies())
            return
        split = _split_study_path(path)
        if split is None:
            self._send_error_json(404, "NotFound", f"no route {path!r}")
            return
        study_id, sub = split
        if sub is None:
            body = service.status(study_id)
            if body is None:
                self._send_error_json(
                    404, "NotFound", f"unknown study {study_id!r}"
                )
                return
            self._send_json(200, body)
        elif sub == "events":
            self._stream_events(study_id)
        elif sub == "result":
            query = parse_qs(parsed.query)
            fmt = (query.get("format") or ["json"])[0]
            if fmt not in ("json", "csv"):
                self._send_error_json(
                    400, "ConfigurationError",
                    f"format must be 'json' or 'csv', got {fmt!r}",
                )
                return
            text = service.result_text(study_id, fmt=fmt)
            if text is None:
                self._send_error_json(
                    404, "NotFound",
                    f"no {fmt} result for study {study_id!r} (not done?)",
                )
                return
            content_type = (
                "application/json" if fmt == "json" else "text/csv"
            )
            self._send_text(200, text, content_type)
        else:
            self._send_error_json(404, "NotFound", f"no route {path!r}")

    def do_DELETE(self) -> None:
        """``DELETE /studies/{id}``."""
        service = self.server.service
        path = urlparse(self.path).path.rstrip("/")
        split = _split_study_path(path)
        if split is None or split[1] is not None:
            self._send_error_json(404, "NotFound", f"no route {path!r}")
            return
        body = service.cancel(split[0])
        if body is None:
            self._send_error_json(
                404, "NotFound", f"unknown study {split[0]!r}"
            )
            return
        self._send_json(200, body)

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    def _stream_events(self, study_id: str) -> None:
        service = self.server.service
        stream = service.events(study_id)
        if stream is None:
            self._send_error_json(
                404, "NotFound", f"unknown study {study_id!r}"
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in stream:
                if event is None:
                    self.wfile.write(b": keep-alive\n\n")
                else:
                    data = json.dumps(event, sort_keys=True)
                    self.wfile.write(f"data: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # the subscriber went away; nothing to clean up
        self.close_connection = True


class StudyServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` wired to one :class:`StudyService`.

    Handler threads are daemons, so a lingering SSE subscriber cannot
    block :meth:`shutdown`; closing the server also stops the
    scheduler.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: StudyService) -> None:
        """Bind *address* and attach *service* for the handlers."""
        super().__init__(address, _StudyRequestHandler)
        self.service = service
        # Whether serve_forever is looping (or closed before it began):
        # shutdown() waits for a loop to acknowledge, so it must only
        # be asked of a running one.
        self._loop_lock = threading.Lock()
        self._serving = False
        self._closed = False

    @property
    def url(self) -> str:
        """The base URL clients should use."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Handle requests until :meth:`close` (returns at once if closed)."""
        with self._loop_lock:
            if self._closed:
                return
            self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            with self._loop_lock:
                self._serving = False

    def close(self) -> None:
        """Stop accepting, stop the scheduler, release the socket.

        Works whether or not :meth:`serve_forever` ever ran: the loop
        is shut down only while it is serving, and the scheduler (with
        its pool workers) is stopped either way.
        """
        with self._loop_lock:
            self._closed = True
            serving = self._serving
        if serving:
            self.shutdown()
        self.service.close()
        self.server_close()


def make_server(
    store_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    transport: Optional[str] = None,
    transport_options: Optional[Mapping[str, Any]] = None,
    cache: Optional[str] = None,
    cache_options: Optional[Mapping[str, Any]] = None,
    heartbeat: float = 10.0,
) -> StudyServer:
    """A ready-to-serve :class:`StudyServer` (scheduler already started).

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`StudyServer.url`.  The store is recovered before the first
    request can arrive, so a restarted server re-lists finished studies
    immediately and has already marked interrupted ones failed.
    *cache* pins one shared cell-cache directory for every submission
    (see :class:`~repro.service.scheduler.StudyScheduler`).
    """
    service = StudyService(
        store_dir,
        transport=transport,
        transport_options=transport_options,
        cache=cache,
        cache_options=cache_options,
        heartbeat=heartbeat,
    )
    server = StudyServer((host, port), service)
    service.start()
    return server


def serve(
    store_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    transport: Optional[str] = None,
    transport_options: Optional[Mapping[str, Any]] = None,
    cache: Optional[str] = None,
    cache_options: Optional[Mapping[str, Any]] = None,
    heartbeat: float = 10.0,
) -> int:
    """Run the study server until SIGTERM/SIGINT; returns the exit code.

    The blocking core of ``python -m repro serve``: on either signal
    the HTTP loop is shut down, the scheduler is drained (an in-flight
    study is aborted and marked cancelled; only a *hard* kill leaves it
    ``running`` for the next start to report as interrupted/failed),
    and 0 is returned.
    """
    server = make_server(
        store_dir,
        host=host,
        port=port,
        transport=transport,
        transport_options=transport_options,
        cache=cache,
        cache_options=cache_options,
        heartbeat=heartbeat,
    )

    def _request_shutdown(signum: int, frame: Any) -> None:
        """Ask the serve loop to stop (runs on the main thread)."""
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_shutdown)
    print(
        f"study service on {server.url} (store {server.service.store.root})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.service.close()
        server.server_close()
    return 0
