"""The OpenAI-compatible provider that every live-path test runs against, on 127.0.0.1.

It answers ``POST .../v1/chat/completions`` over keep-alive HTTP/1.1 from its ``script`` of
``(status, payload[, headers])`` entries, in order. Once the script is empty it answers with
the mock the posted model names, as ``build_backend`` does in mock mode: ``critic`` runs
``MockCritic``, ``solver`` ``MockSolver``, ``extractor`` ``HeadingRuleExtractor``, and any other
model gets ``ok()``. A mock answers for the purpose the ``X-MPO-Purpose`` header names, as it
would in the client's process. Every request lands in ``requests``, with that purpose decoded.
"""

from __future__ import annotations

import contextlib
import json
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from mpo import ChatTurn, GenerationParams, HeadingRuleExtractor, MockCritic, MockSolver
from mpo.backends import call_for

MOCKS = {"critic": MockCritic(), "solver": MockSolver(), "extractor": HeadingRuleExtractor()}


def ok(content: str = "fine", finish_reason: str | None = None) -> tuple[int, dict]:
    """A completion whose content is ``content``, with ``finish_reason`` when one is given."""
    reason = {"finish_reason": finish_reason} if finish_reason else {}
    return 200, {"choices": [{"message": {"role": "assistant", "content": content}, **reason}]}


def _mock_answer(body: dict, purpose: str | None) -> tuple[int, dict]:
    mock = MOCKS.get(body["model"])
    if mock is None:
        return ok()
    turns = [ChatTurn(**message) for message in body["messages"]]
    return ok(call_for(purpose, mock.complete, turns, GenerationParams(body["temperature"], body["max_tokens"], body.get("seed"))))


class _Handler(BaseHTTPRequestHandler):
    # Each response leaves in one write: headers and body written apart would wait out
    # Nagle's algorithm and a delayed ACK, about 40 ms a call.
    protocol_version = "HTTP/1.1"
    wbufsize = -1  # handle_one_request flushes once, after do_POST

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        purpose = None if (sent := self.headers.get("X-MPO-Purpose")) is None else unquote(sent)
        time.sleep(server.delay)
        with server.lock:  # the log keeps the script's order
            status, payload, *headers = server.script.pop(0) if server.script else _mock_answer(body, purpose)
            auth, port = self.headers.get("Authorization"), self.client_address[1]
            server.requests.append({"path": self.path, "body": body, "auth": auth, "port": port, "status": status, "purpose": purpose})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # Closing without a ``Connection: close`` header is what a provider's idle timeout does.
        self.close_connection = server.idle_close

    def log_message(self, *args):
        pass


class Provider(ThreadingHTTPServer):
    """Answers each request ``delay`` seconds after reading it, closes each connection after
    one answer with ``idle_close``, serves HTTPS with a ``tls`` server context, and releases
    ``closed`` once per connection it has closed."""

    def __init__(self, delay: float = 0.0, idle_close: bool = False, tls: ssl.SSLContext | None = None):
        super().__init__(("127.0.0.1", 0), _Handler)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        self.scheme = "http" if tls is None else "https"
        self.delay, self.idle_close = delay, idle_close
        self.script: list[tuple] = []
        self.requests: list[dict] = []
        self.lock, self.closed = threading.Lock(), threading.Semaphore(0)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    @contextlib.contextmanager
    def serving(self):
        """The base URL while the server runs on its own thread."""
        thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        try:
            yield f"{self.scheme}://127.0.0.1:{self.server_address[1]}"
        finally:
            self.shutdown()
            self.server_close()
            thread.join(timeout=5)
            assert not thread.is_alive()
