"""Loopback chat-completions stub for the routed workload.

It binds 127.0.0.1 only and serves from a single thread, so a benchmark
process holds two threads (main and server), within a 2-core budget. The
benchmark tells it which stage to answer before each routing request; the
answer is the deterministic next stage, so every routing decision should be
accepted. Handler time is recorded server-side: it is the part of a request
the client spends waiting on the endpoint.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        payload = json.dumps(
            {"choices": [{"message": {"content": self.server.answer}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()
        elapsed = time.perf_counter() - start
        with self.server.lock:
            self.server.requests += 1
            self.server.handler_s += elapsed

    def log_message(self, *args):
        pass


class LoopbackEndpoint:
    """One-route stub server; use as a context manager so it always stops."""

    def __init__(self):
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.answer = "Idle"
        self._server.lock = threading.Lock()
        self._server.requests = 0
        self._server.handler_s = 0.0
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1"

    def expect(self, stage_name):
        """Set the answer to the next request."""
        self._server.answer = stage_name

    def counters(self):
        """(requests served, seconds spent in the handler) so far."""
        with self._server.lock:
            return self._server.requests, self._server.handler_s

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
