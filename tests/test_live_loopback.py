"""The live path end to end: ``cli.main`` -> ``build_backend`` -> ``HTTPBackend``
-> artifacts, against an OpenAI-compatible server on 127.0.0.1."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import mpo
from mpo import ChatTurn, GenerationParams, MockCritic
from mpo.cli import main


class _Provider(BaseHTTPRequestHandler):
    """Answers ``/v1/chat/completions`` over keep-alive HTTP/1.1 by running
    ``MockCritic`` on the posted messages. The server's first request is
    answered ``429`` with ``Retry-After: 0``; the server logs every status.
    Each response leaves in one write: headers and body written apart would
    wait out Nagle's algorithm and a delayed ACK, about 40 ms a call."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # handle_one_request flushes once, after do_POST

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            throttled = not self.server.statuses
            self.server.statuses.append(429 if throttled else 200)
        if throttled:
            self._send(429, {"error": "slow down"}, {"Retry-After": "0"})
            return
        turns = [ChatTurn(**message) for message in body["messages"]]
        params = GenerationParams(body["temperature"], body["max_tokens"], body.get("seed"))
        content = MockCritic().complete(turns, params)
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    def _send(self, status: int, payload: dict, headers: dict | None = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def provider():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Provider)
    server.lock, server.statuses = threading.Lock(), []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_live_record_matches_mock_and_replays(provider, data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("MPO_BASE_URL", f"http://127.0.0.1:{provider.server_address[1]}")
    monkeypatch.delenv("MPO_API_KEY", raising=False)
    run = ["optimize", str(data_dir / "multi_task_tagged.txt")]
    assert main([*run, "--mock", "--out", str(tmp_path / "mock")]) == 0
    assert main([*run, "--live", "--record", "--out", str(tmp_path / "live")]) == 0
    assert main([*run, "--replay", str(tmp_path / "live" / "transcript.jsonl"), "--out", str(tmp_path / "replay")]) == 0
    # Three rounds of five critiques, and the throttled first call asked again.
    assert provider.statuses == [429] + [200] * 15
    for name in ("history.jsonl", "metrics.json", "final_prompt.txt"):
        expected = (tmp_path / "mock" / name).read_bytes()
        assert (tmp_path / "live" / name).read_bytes() == expected, name
        assert (tmp_path / "replay" / name).read_bytes() == expected, name


# The CLI in a fresh interpreter where ``import requests`` fails: a live run
# and its replay need nothing outside the standard library.
_WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None
from mpo.cli import main
run = ["optimize", sys.argv[1]]
assert main([*run, "--live", "--record", "--out", sys.argv[2]]) == 0
assert main([*run, "--replay", sys.argv[2] + "/transcript.jsonl", "--out", sys.argv[3]]) == 0
"""


def test_live_run_and_replay_need_no_requests(provider, data_dir, tmp_path):
    prompt = str(data_dir / "multi_task_tagged.txt")
    assert main(["optimize", prompt, "--mock", "--out", str(tmp_path / "mock")]) == 0
    env = {**os.environ, "MPO_BASE_URL": f"http://127.0.0.1:{provider.server_address[1]}"}
    env.update(PYTHONPATH=str(Path(mpo.__file__).resolve().parents[1]), MPO_API_KEY="")
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_REQUESTS, prompt, str(tmp_path / "live"), str(tmp_path / "replay")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert provider.statuses == [429] + [200] * 15
    for name in ("history.jsonl", "metrics.json", "final_prompt.txt"):
        expected = (tmp_path / "mock" / name).read_bytes()
        assert (tmp_path / "live" / name).read_bytes() == expected, name
        assert (tmp_path / "replay" / name).read_bytes() == expected, name
