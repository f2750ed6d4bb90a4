"""Shared fixtures: a scriptable local chat-completions endpoint."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

SENTINEL_KEY = "sk-sentinel-0123456789abcdef"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        record = {
            "path": self.path,
            "authorization": self.headers.get("Authorization", ""),
            "body": json.loads(body) if body else None,
        }
        self.server.seen.append(record)
        status, payload, delay = self.server.next_response()
        if delay:
            time.sleep(delay)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out first, as the timeout tests intend

    def log_message(self, *args):
        pass


class MockEndpoint:
    """Scriptable one-route chat-completions server."""

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.seen = []
        self.server.script = []
        self.server.next_response = self._next_response
        # A short poll interval lets close() return within ~10 ms instead of
        # waiting out serve_forever's default 0.5 s poll.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    @property
    def seen(self):
        return self.server.seen

    def _next_response(self):
        if len(self.server.script) > 1:
            return self.server.script.pop(0)
        return self.server.script[0]

    def reply_content(self, text):
        payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.server.script = [(200, payload, 0.0)]

    def reply_script(self, *responses):
        """Each response is (status, payload_bytes, delay_s); the last repeats."""
        self.server.script = list(responses)

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint():
    ep = MockEndpoint()
    yield ep
    ep.close()
