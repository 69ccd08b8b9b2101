"""The live path end to end: ``cli.main`` -> ``build_backend`` -> ``HTTPBackend``
-> artifacts, against the loopback ``Provider``."""

from __future__ import annotations

import json

import pytest

from mpo import SectionKind, parse_structured_prompt
from mpo.cli import main
from provider import ok
from solvers import assert_same_run, fresh_python, jsonl


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


# A reply the provider cut short (``finish_reason`` ``length``) is never applied: the call
# fails as a provider failure would, and a recording of the run replays it.
@pytest.fixture
def live(provider, monkeypatch):
    """The provider, as the base URL every ``--live`` run in the test posts to."""
    base_url, server = provider
    monkeypatch.setenv("MPO_BASE_URL", base_url)
    monkeypatch.delenv("MPO_API_KEY", raising=False)
    return server


@pytest.mark.parametrize(
    "script, calls, reason",
    [
        ([ok("- Be conc", "length")], 9, "critique failed: reply cut at max_tokens (512)"),
        ([ok("- Be concise.\n- Be exact."), ok("You are a helpful, creat", "length")], 10,
         "update failed: reply cut at max_tokens (1024)"),
    ],
    ids=["critique", "consolidation"],
)
def test_cut_optimize_reply_keeps_the_section(script, calls, reason, live, data_dir, tmp_path):
    prompt = data_dir / "multi_task_tagged.txt"
    live.script += script
    run = ["optimize", str(prompt), "--dedup", "llm", "--iterations", "1"]
    assert main([*run, "--live", "--record", "--out", str(tmp_path / "live")]) == 0
    assert len(live.requests) == calls  # one critique and one consolidation per section, none asked again
    final = parse_structured_prompt((tmp_path / "live" / "final_prompt.txt").read_text(encoding="utf-8"))
    given = parse_structured_prompt(prompt.read_text(encoding="utf-8"))
    assert final.section(SectionKind.SYSTEM_ROLE).content == given.section(SectionKind.SYSTEM_ROLE).content
    (round_,) = jsonl(tmp_path / "live" / "gradients.jsonl")
    assert round_["failures"] == [{"section": "system_role", "reason": reason}]
    assert json.loads((tmp_path / "live" / "metrics.json").read_text(encoding="utf-8"))["failure_count"] == 1
    assert main([*run, "--replay", str(tmp_path / "live" / "transcript.jsonl"), "--out", str(tmp_path / "replay")]) == 0
    assert_same_run(tmp_path / "live", tmp_path / "replay", masked=True)


def test_cut_solver_reply_fails_its_item(live, data_dir, tmp_path):
    live.script.append(ok("Answer: B", "length"))  # q01's gold letter, but cut
    run = ["eval", str(data_dir / "multi_task_tagged.txt"), str(data_dir / "mcq_ten.jsonl")]
    assert main([*run, "--live", "--record", "--out", str(tmp_path / "live")]) == 0
    records = json.loads((tmp_path / "live" / "eval_result.json").read_text(encoding="utf-8"))["records"]
    assert (records[0]["extracted"], records[0]["note"]) == (None, "solver failed: reply cut at max_tokens (64)")
    assert [record["note"] for record in records[1:]] == [""] * 9
    assert main([*run, "--replay", str(tmp_path / "live" / "transcript.jsonl"), "--out", str(tmp_path / "replay")]) == 0
    assert_same_run(tmp_path / "live", tmp_path / "replay")


def test_cut_extractor_reply_aborts(live, data_dir, tmp_path, capsys):
    live.script.append(ok("<System Role>\nYou are", "length"))
    out = tmp_path / "live"
    assert main(["decompose", str(data_dir / "multi_task_raw.txt"), "--live", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "aborted: reply cut at max_tokens (1024)\n"
    assert list(out.iterdir()) == []
