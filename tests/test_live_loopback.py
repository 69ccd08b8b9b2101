"""The live path end to end: ``cli.main`` -> ``build_backend`` -> ``HTTPBackend``
-> artifacts, against the loopback ``Provider``."""

from __future__ import annotations

import pytest

from mpo.cli import main
from solvers import assert_same_run, fresh_python


@pytest.fixture
def throttled(provider):
    """The provider, answering its first request ``429`` with ``Retry-After: 0``."""
    base_url, server = provider
    server.script.append((429, {"error": "slow down"}, {"Retry-After": "0"}))
    return base_url, server


def test_live_record_matches_mock_and_replays(throttled, data_dir, tmp_path, monkeypatch):
    base_url, server = throttled
    monkeypatch.setenv("MPO_BASE_URL", base_url)
    monkeypatch.delenv("MPO_API_KEY", raising=False)
    run = ["optimize", str(data_dir / "multi_task_tagged.txt")]
    assert main([*run, "--mock", "--out", str(tmp_path / "mock")]) == 0
    assert main([*run, "--live", "--record", "--out", str(tmp_path / "live")]) == 0
    assert main([*run, "--replay", str(tmp_path / "live" / "transcript.jsonl"), "--out", str(tmp_path / "replay")]) == 0
    # Three rounds of five critiques, and the throttled first call asked again.
    assert [request["status"] for request in server.requests] == [429] + [200] * 15
    assert_same_run(tmp_path / "mock", tmp_path / "live", tmp_path / "replay", masked=True)


def test_live_eval_matches_mock_replays_and_compares(throttled, data_dir, tmp_path, monkeypatch):
    base_url, server = throttled
    monkeypatch.setenv("MPO_BASE_URL", base_url)
    monkeypatch.delenv("MPO_API_KEY", raising=False)
    run = ["eval", str(data_dir / "multi_task_tagged.txt"), str(data_dir / "mcq_ten.jsonl")]
    assert main([*run, "--mock", "--out", str(tmp_path / "mock")]) == 0
    assert main([*run, "--live", "--record", "--concurrency", "5", "--out", str(tmp_path / "live")]) == 0
    assert main([*run, "--replay", str(tmp_path / "live" / "transcript.jsonl"), "--out", str(tmp_path / "replay")]) == 0
    # Ten items, and the throttled first call asked again.
    assert [request["status"] for request in server.requests] == [429] + [200] * 10
    assert_same_run(tmp_path / "mock", tmp_path / "live", tmp_path / "replay")
    assert main(["compare", str(tmp_path / "mock" / "eval_result.json"), str(tmp_path / "live" / "eval_result.json")]) == 0


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


def test_live_run_and_replay_need_no_requests(throttled, data_dir, tmp_path):
    base_url, server = throttled
    prompt = str(data_dir / "multi_task_tagged.txt")
    assert main(["optimize", prompt, "--mock", "--out", str(tmp_path / "mock")]) == 0
    result = fresh_python(
        "-c", _WITHOUT_REQUESTS, prompt, str(tmp_path / "live"), str(tmp_path / "replay"),
        env={"MPO_BASE_URL": base_url, "MPO_API_KEY": ""},
    )
    assert result.returncode == 0, result.stderr
    assert [request["status"] for request in server.requests] == [429] + [200] * 15
    assert_same_run(tmp_path / "mock", tmp_path / "live", tmp_path / "replay", masked=True)
