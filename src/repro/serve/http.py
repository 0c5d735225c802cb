"""The serve-mode HTTP surface.

A :class:`ServeHTTPServer` wraps one
:class:`~repro.serve.session.ServeSession` behind a threading HTTP
server.  Handlers and the tick loop share one lock, so scrapes and
checkpoints always observe the world *between* ticks — never mid-event —
and nothing the HTTP side does can perturb sim state ordering.

Endpoints (DESIGN.md §13 has the full table)::

    GET  /metrics     Prometheus text exposition
    GET  /health      200 while the process is up
    GET  /ready       200 once pinglists pushed + first window closed
    GET  /status      JSON session summary
    GET  /alerts      JSON alert rules, states, and event log
    POST /checkpoint  snapshot to the configured path
    POST /inject      schedule a fault (requires allow_inject)
    POST /shutdown    request a clean exit of the serve loop
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.checkpoint import CheckpointError, save_checkpoint
from repro.serve.session import ServeSession, parse_fault_spec

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# The largest request body a POST may carry; a fault spec is ~100 bytes.
MAX_BODY_BYTES = 64 * 1024


class ServeHTTPServer:
    """Session + lock + endpoints; owns the listener thread."""

    def __init__(self, session: ServeSession, *, host: str = "127.0.0.1",
                 port: int = 0, checkpoint_path: Optional[str] = None,
                 allow_inject: bool = False):
        self.session = session
        self.lock = threading.Lock()
        self.checkpoint_path = checkpoint_path
        self.allow_inject = allow_inject
        self.shutdown_requested = threading.Event()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass  # the TUI owns stdout; drop per-request chatter

            def _respond(self, code: int, body: bytes,
                         content_type: str = "application/json") -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, code: int, payload: dict) -> None:
                self._respond(code, (json.dumps(payload, sort_keys=True)
                                     + "\n").encode())

            def do_GET(self) -> None:
                outer._handle_get(self)

            def do_POST(self) -> None:
                outer._handle_post(self)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- endpoint dispatch --------------------------------------------------

    def _handle_get(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            with self.lock:
                body = self.session.render_metrics().encode()
            handler._respond(200, body, PROMETHEUS_CONTENT_TYPE)
        elif path == "/health":
            handler._json(200 if self.session.healthy() else 500,
                          {"healthy": self.session.healthy(),
                           "tick": self.session.ticks})
        elif path == "/ready":
            with self.lock:
                ready = self.session.ready()
            handler._json(200 if ready else 503, {"ready": ready})
        elif path == "/status":
            with self.lock:
                handler._json(200, self.session.status())
        elif path == "/alerts":
            with self.lock:
                handler._json(200, self.session.alerts.as_dict())
        else:
            handler._json(404, {"error": f"no such endpoint: {path}"})

    def _handle_post(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        # The headers and the body come from outside: never trust the
        # declared length (a read past the real body blocks this handler
        # thread forever) or the encoding.
        try:
            length = int(handler.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            handler.close_connection = True
            handler._json(400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            handler.close_connection = True
            handler._json(413, {"error": f"request body over "
                                         f"{MAX_BODY_BYTES} bytes"})
            return
        try:
            body = handler.rfile.read(length).decode()
        except UnicodeDecodeError:
            handler._json(400, {"error": "request body is not UTF-8"})
            return
        if path == "/checkpoint":
            self._do_checkpoint(handler)
        elif path == "/inject":
            self._do_inject(handler, body)
        elif path == "/shutdown":
            self.shutdown_requested.set()
            handler._json(200, {"shutdown": "requested",
                                "tick": self.session.ticks})
        else:
            handler._json(404, {"error": f"no such endpoint: {path}"})

    def _do_checkpoint(self, handler) -> None:
        if self.checkpoint_path is None:
            handler._json(409, {"error": "no checkpoint path configured "
                                         "(--checkpoint)"})
            return
        try:
            with self.lock:
                metadata = save_checkpoint(self.session,
                                           self.checkpoint_path)
        except CheckpointError as exc:
            handler._json(500, {"error": str(exc)})
            return
        handler._json(200, {"path": self.checkpoint_path,
                            "tick": metadata["tick"],
                            "sim_now_ns": metadata["sim_now_ns"],
                            "config_digest": metadata["config_digest"]})

    def _do_inject(self, handler, body: str) -> None:
        if not self.allow_inject:
            handler._json(403, {"error": "fault injection disabled "
                                         "(start with --allow-inject)"})
            return
        try:
            payload = json.loads(body) if body else {}
            event = parse_fault_spec(payload["fault"])
            with self.lock:
                scheduled = self.session.inject(event)
        except (KeyError, TypeError, ValueError) as exc:   # incl. bad JSON
            handler._json(400, {"error": f"bad inject request: {exc}"})
            return
        handler._json(200, {"injected": scheduled.kind,
                            "loci": list(scheduled.loci),
                            "start_s": scheduled.start_s,
                            "end_s": scheduled.end_s})
