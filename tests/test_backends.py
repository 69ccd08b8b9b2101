"""Backends: digests, transcripts, record/replay, and the HTTP client."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import io
import json
import re
import ssl
import sys
import textwrap
import threading
import time
import tracemalloc
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpo
from mpo import (
    BackendError,
    ChatTurn,
    GenerationParams,
    HTTPBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    Transcript,
    request_digest,
)
from mpo.backends import (
    API_KEY_ENV,
    BASE_URL_ENV,
    CONSOLIDATION_PARAMS,
    GRADIENT_PARAMS,
    SOLVER_PARAMS,
    call_for,
    fan_out,
    open_utf8,
)
from provider import Provider, ok
from solvers import Recorder, ScriptedBackend, assert_redumps, fresh_python, jsonl, line, record

TURNS = (ChatTurn("user", "hello"),)
PARAMS = GenerationParams()


class TestChatTurn:
    def test_roles_validated(self):
        for role in ("system", "user", "assistant"):
            assert ChatTurn(role, "x").role == role
        with pytest.raises(ValueError):
            ChatTurn("tool", "x")

    def test_to_dict(self):
        assert ChatTurn("user", "hi").to_dict() == {"role": "user", "content": "hi"}

    def test_none_content_rejected(self):
        with pytest.raises(ValueError, match="content must be a string, got NoneType"):
            ChatTurn("user", None)

    @pytest.mark.parametrize("content", [5, b"x"], ids=["int", "bytes"])
    def test_non_string_content_rejected(self, content):
        with pytest.raises(ValueError, match=f"content must be a string, got {type(content).__name__}"):
            ChatTurn("user", content)


class TestGenerationParams:
    def test_defaults_bias_determinism(self):
        assert PARAMS.temperature == 0.0
        assert GRADIENT_PARAMS.max_output_tokens == 512
        assert CONSOLIDATION_PARAMS.max_output_tokens == 1024
        assert SOLVER_PARAMS.max_output_tokens == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationParams(temperature=-0.1)
        with pytest.raises(ValueError):
            GenerationParams(max_output_tokens=0)

    def test_dict_round_trip(self):
        params = GenerationParams(temperature=0.5, max_output_tokens=10, seed=7)
        assert GenerationParams(**params.to_dict()) == params


class TestRequestDigest:
    def test_equal_inputs_equal_digests(self):
        assert request_digest(TURNS, PARAMS) == request_digest(TURNS, PARAMS)
        assert len(request_digest(TURNS, PARAMS)) == 64

    def test_any_field_changes_digest(self):
        base = request_digest(TURNS, PARAMS)
        assert request_digest((ChatTurn("user", "hello!"),), PARAMS) != base
        assert request_digest((ChatTurn("system", "hello"),), PARAMS) != base
        assert request_digest(TURNS, GenerationParams(seed=1)) != base
        assert request_digest(TURNS, GenerationParams(max_output_tokens=16)) != base

    def test_turn_order_matters(self):
        a = (ChatTurn("user", "1"), ChatTurn("user", "2"))
        assert request_digest(a, PARAMS) != request_digest(tuple(reversed(a)), PARAMS)


class TestScriptedBackend:
    def test_constant_reply(self):
        assert ScriptedBackend("ok").complete(TURNS, PARAMS) == "ok"

    def test_callable_reply_sees_request(self):
        backend = ScriptedBackend(lambda turns, params: turns[-1].content.upper())
        assert backend.complete(TURNS, PARAMS) == "HELLO"

    def test_identity(self):
        assert ScriptedBackend("x", name="n", model="m").identity == "n:m"


def saved(path: Path, records: list[dict]) -> Path:
    """``records`` appended to an in-memory transcript and saved to ``path``."""
    store = Transcript()
    for each in records:
        store.append(line(each))
    store.save(path)
    return path


class TestTranscript:
    def test_save_load_round_trip(self, tmp_path):
        records = [record(response="a"), record(response="b")]
        assert Transcript.load(saved(tmp_path / "t.jsonl", records)) == records

    def test_jsonl_layout(self, tmp_path):
        (saved_record,) = jsonl(saved(tmp_path / "t.jsonl", [record()]))
        assert list(saved_record) == ["request_digest", "request", "params", "response", "timestamp", "purpose", "identity"]

    def test_non_utf8_byte_named_by_line_and_file_offset(self, tmp_path):
        path = saved(tmp_path / "t.jsonl", [record(response=f"out {n}") for n in range(100)])
        data = bytearray(path.read_bytes())
        offset = data.index(b"out 77")
        data[offset] = 0xFF
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as caught:
            Transcript.load(path)
        assert caught.value.start == offset > 8192  # past the text reader's first decode chunk
        assert str(caught.value).endswith(f"invalid start byte (line 78, file byte offset {offset})")

    def test_decode_error_from_the_caller_is_reraised_when_the_file_decodes(self, tmp_path):
        # The error did not come from the file, so it passes through unchanged, without a file offset.
        path = tmp_path / "t.txt"
        path.write_text("plain text\n", encoding="utf-8")
        raised = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        with pytest.raises(UnicodeDecodeError) as caught:
            with open_utf8(path):
                raise raised
        assert caught.value is raised
        assert caught.value.reason == "invalid start byte"

    def test_concurrent_appends_all_land(self, tmp_path):
        store = Transcript()
        threads = [
            threading.Thread(target=lambda n=n: store.append(line(record(response=f"out {n}"))))
            for n in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.save(tmp_path / "t.jsonl")
        served = sorted(record["response"] for record in Transcript.load(tmp_path / "t.jsonl"))
        assert served == sorted(f"out {n}" for n in range(16))

    def test_save_holds_no_second_copy_of_a_large_transcript(self, tmp_path):
        # The buffer's text is copied once and written in slices, not encoded whole.
        store = Transcript()
        for n in range(2_000):
            store.append(line(record(response=f"{n} " + "x" * 1_000)))
        tracemalloc.start()
        try:
            store.save(tmp_path / "t.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "t.jsonl").stat().st_size
        assert size >= 2_000_000 and peak < 1.5 * size, (peak, size)

    def test_save_on_a_file_stream_raises_and_leaves_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with path.open("a", encoding="utf-8") as stream:
            store = Transcript(stream)
            store.append(line(record()))
            with pytest.raises(AttributeError):
                store.save(path)  # the stream's own file: its recorded call is kept
        assert path.read_bytes() == line(record()).encode("utf-8")


class TestRecordReplay:
    def test_recording_passes_through_and_stores(self):
        backend = Recorder(ScriptedBackend("reply", name="s", model="m"))
        assert backend.complete(TURNS, PARAMS) == "reply"
        assert backend.identity == "s:m"
        (entry,) = backend.records()
        assert entry["response"] == "reply"
        assert entry["request_digest"] == request_digest(TURNS, PARAMS)
        assert entry["request"] == [{"role": "user", "content": "hello"}]
        assert entry["params"] == PARAMS.to_dict()

    def test_replay_serves_recorded_response(self):
        recorder = Recorder(ScriptedBackend("reply"))
        recorder.complete(TURNS, PARAMS)
        assert ReplayBackend(recorder.records()).complete(TURNS, PARAMS) == "reply"

    def test_equal_requests_are_served_by_purpose_in_any_order(self):
        other = (ChatTurn("user", "other"),)
        calls = iter(["first", "middle", "second"])
        recorder = Recorder(ScriptedBackend(lambda t, p: next(calls)))
        for purpose, turns in (("a", TURNS), ("b", other), ("c", TURNS)):
            call_for(purpose, recorder.complete, turns, PARAMS)
        replay = ReplayBackend(recorder.records())
        for purpose, turns, served in (("c", TURNS, "second"), ("b", other, "middle"), ("a", TURNS, "first")):
            assert call_for(purpose, replay.complete, turns, PARAMS) == served

    def test_miss_names_the_purpose_and_the_digest(self):
        replay = ReplayBackend([record(purpose="critique:task_details@2")])
        with pytest.raises(ReplayMiss, match=f"purpose solve:q1 with request digest {request_digest(TURNS, PARAMS)};"):
            call_for("solve:q1", replay.complete, TURNS, PARAMS)

    def test_a_request_that_is_not_the_purposes_record_misses_and_consumes_nothing(self):
        replay = ReplayBackend([record(purpose="p")])
        with pytest.raises(ReplayMiss, match="purpose p with request digest"):
            call_for("p", replay.complete, (ChatTurn("user", "other"),), PARAMS)
        with pytest.raises(ReplayMiss, match="purpose None with"):  # a call with no purpose
            replay.complete(TURNS, PARAMS)
        assert call_for("p", replay.complete, TURNS, PARAMS) == "out"

    def test_a_purpose_logged_twice_is_refused(self):
        with pytest.raises(ValueError, match="the purpose 'solve:q1' is logged twice"):
            ReplayBackend([record(purpose="solve:q1"), record(purpose="solve:q2"), record(purpose="solve:q1")])
        with pytest.raises(ValueError, match="the purpose None is logged twice"):
            ReplayBackend([record(), record()])

    def test_replay_names_itself_by_the_logged_identity(self):
        assert ReplayBackend([record(identity="http:model:v2")]).identity == "http:model:v2"
        assert ReplayBackend([]).identity == "replay:transcript"

    def test_exhausted_entries_raise(self):
        recorder = Recorder(ScriptedBackend("only"))
        recorder.complete(TURNS, PARAMS)
        replay = ReplayBackend(recorder.records())
        replay.complete(TURNS, PARAMS)
        with pytest.raises(ReplayMiss):
            replay.complete(TURNS, PARAMS)

    def test_miss_is_not_a_backend_error(self):
        # Failure isolation absorbs BackendError; replay divergence must
        # never be absorbed, so the types stay disjoint.
        assert not issubclass(ReplayMiss, BackendError)

    def test_replay_after_disk_round_trip(self, tmp_path):
        recorder = Recorder(ScriptedBackend("reply"))
        recorder.complete(TURNS, PARAMS)
        path = recorder.write(tmp_path / "t.jsonl")
        assert ReplayBackend(Transcript.load(path)).complete(TURNS, PARAMS) == "reply"

    @staticmethod
    def _replay_of(turns, params=PARAMS) -> ReplayBackend:
        recorder = Recorder(ScriptedBackend("reply"))
        recorder.complete(turns, params)
        return ReplayBackend(recorder.records())

    @pytest.mark.parametrize(
        "recorded, live",
        [
            (("ab", "c"), ("a", "bc")),
            (("ab", "c"), ("abc",)),
            # Content that spells the next turn's role, or its framing.
            (("a", "userb"), ("auser", "b")),
            (("a", "b"), ("auser:b",)),
            (("a", "b"), ("a4:user1:b",)),
        ],
    )
    def test_turn_boundaries_are_part_of_the_match(self, recorded, live):
        replay = self._replay_of(tuple(ChatTurn("user", text) for text in recorded))
        with pytest.raises(ReplayMiss):
            replay.complete(tuple(ChatTurn("user", text) for text in live), PARAMS)

    def test_role_is_part_of_the_match(self):
        with pytest.raises(ReplayMiss):
            self._replay_of(TURNS).complete((ChatTurn("system", "hello"),), PARAMS)

    @pytest.mark.parametrize(
        "changed",
        # An int temperature equals PARAMS' 0.0 but encodes apart, so it misses too.
        [{"temperature": 0.5}, {"max_output_tokens": 16}, {"seed": 1}, {"temperature": 0}],
        ids=["temperature", "max_output_tokens", "seed", "temperature_int"],
    )
    def test_each_param_is_part_of_the_match(self, changed):
        replay = self._replay_of(TURNS)
        with pytest.raises(ReplayMiss):
            replay.complete(TURNS, GenerationParams(**changed))
        assert replay.complete(TURNS, PARAMS) == "reply"

    def test_params_are_encoded_once_per_instance_and_once_per_served_record(self, monkeypatch):
        replay = self._replay_of(TURNS)
        (logged,) = replay._records.values()
        encoded, params_json = [], mpo.backends._params_json
        monkeypatch.setattr(mpo.backends, "_params_json", lambda params: encoded.append(params) or params_json(params))
        params = GenerationParams()
        Recorder(ScriptedBackend("reply")).complete(TURNS, params)
        request_digest(TURNS, params)
        assert replay.complete(TURNS, params) == "reply"
        assert encoded == [params.to_dict(), logged["params"]] and encoded[1] is logged["params"]

    def test_stored_digest_is_a_label_not_the_lookup(self):
        entry = record(request_digest="label", response="reply")
        assert ReplayBackend([entry]).complete(TURNS, PARAMS) == "reply"

    def test_kept_and_streamed_recordings_of_a_run_are_byte_identical(self, tagged_prompt, tmp_path, monkeypatch):
        # Saved from the in-memory buffer, or written to a file as each call returns.
        class FixedClock(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2024, 1, 1, tzinfo=tz)

        monkeypatch.setattr("datetime.datetime", FixedClock)  # complete imports the clock when it records
        config = mpo.OptimizerConfig(iterations=2, dedup_mode=mpo.DedupMode.LLM)
        kept = Transcript()
        mpo.optimize(tagged_prompt, RecordingBackend(mpo.MockCritic(), kept), config)
        kept.save(tmp_path / "kept.jsonl")
        with (tmp_path / "streamed.jsonl").open("w", encoding="utf-8") as stream:
            mpo.optimize(tagged_prompt, RecordingBackend(mpo.MockCritic(), Transcript(stream)), config)
        kept_bytes = (tmp_path / "kept.jsonl").read_bytes()
        assert kept_bytes == (tmp_path / "streamed.jsonl").read_bytes()
        records = Transcript.load(tmp_path / "kept.jsonl")
        assert len(records) > 5  # critiques and consolidations
        assert {record["timestamp"] for record in records} == {"2024-01-01T00:00:00+00:00"}

    def test_seed_run_entries_serve_their_own_requests(self, data_dir):
        # The pinned transcript's labels agree with its requests, and each
        # purpose is served its own recorded response, once.
        records = Transcript.load(data_dir / "seed_run" / "transcript.jsonl")
        replay = ReplayBackend(records)
        for entry in records:
            turns = tuple(ChatTurn(turn["role"], turn["content"]) for turn in entry["request"])
            params = GenerationParams(**entry["params"])
            assert entry["request_digest"] == request_digest(turns, params)
            assert call_for(entry["purpose"], replay.complete, turns, params) == entry["response"]
        with pytest.raises(ReplayMiss):  # each record is served once
            call_for(entry["purpose"], replay.complete, turns, params)

    def test_seed_run_records_redump_to_the_file_bytes(self, data_dir):
        assert_redumps(data_dir / "seed_run" / "transcript.jsonl")

    # U+2028 and \x85, which a JSON line holds raw and str.splitlines would
    # break it at; \x1c and NUL, which it escapes; quotes and backslashes.
    AWKWARD = ("a\u2028b", "c\x85d", "e\x1cf", "nul\x00", 'say "hi"', "back\\slash", "\u6f22\r\n")

    def test_awkward_content_round_trips_and_replays(self, tmp_path):
        recorder = Recorder(ScriptedBackend(lambda turns, params: turns[0].content[::-1]))
        requests = [(ChatTurn("system", text), ChatTurn("user", text * 2)) for text in self.AWKWARD]
        for purpose, turns in zip(self.AWKWARD, requests):
            call_for(purpose, recorder.complete, turns, PARAMS)
        loaded = assert_redumps(recorder.write(tmp_path / "t.jsonl"))  # one line per call
        assert [(record["request"], record["purpose"], record["response"]) for record in loaded] == [
            ([turn.to_dict() for turn in turns], turns[0].content, turns[0].content[::-1]) for turns in requests
        ]
        for order in (slice(None), slice(None, None, -1)):  # and out of recorded order
            replay = ReplayBackend(loaded)
            calls = zip(self.AWKWARD[order], requests[order])
            served = [call_for(purpose, replay.complete, turns, PARAMS) for purpose, turns in calls]
            assert served == [text[::-1] for text in self.AWKWARD[order]]


def reference_digest(turns, params: GenerationParams) -> str:
    """``request_digest`` as one ``json.dumps`` of the whole request: the form
    the pinned transcripts were recorded with."""
    payload = {"turns": [turn.to_dict() for turn in turns], "params": params.to_dict()}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Text a JSON line holds raw (U+2028, \x85, astral), escapes (\x1c, NUL, CR,
# LF, quotes, backslashes), or both, mixed with any other non-surrogate text.
_AWKWARD_TEXT = st.text(
    st.sampled_from("\u2028\x85\x1c\x00\r\n\"\\\U0001f600\u6f22") | st.characters(codec="utf-8"), max_size=30
)


class TestRecordedLine:
    @settings(max_examples=300, deadline=None)
    @given(
        turns=st.lists(st.builds(ChatTurn, st.sampled_from(("system", "user", "assistant")), _AWKWARD_TEXT), max_size=4),
        params=st.builds(
            GenerationParams,
            temperature=st.sampled_from([0, 0.0, 1]) | st.floats(0, 2),
            max_output_tokens=st.integers(1, 4096),
            seed=st.none() | st.integers(-(2**63), 2**63),
        ),
        response=_AWKWARD_TEXT,
    )
    def test_line_is_json_dumps_of_its_record(self, tmp_path_factory, turns, params, response):
        stream = io.StringIO()
        RecordingBackend(ScriptedBackend(response), Transcript(stream=stream)).complete(turns, params)
        line = stream.getvalue()
        record = json.loads(line)
        assert line == json.dumps(record, ensure_ascii=False) + "\n"
        assert record["request_digest"] == request_digest(turns, params) == reference_digest(turns, params)
        assert record["request"] == [turn.to_dict() for turn in turns]
        assert json.dumps(record["params"]) == json.dumps(params.to_dict())  # 0 stays 0, 0.0 stays 0.0
        assert record["response"] == response
        # Kept in memory, the same line is saved unchanged and read back as its record.
        store, path = Transcript(), tmp_path_factory.getbasetemp() / "line.jsonl"
        RecordingBackend(ScriptedBackend(response), store).complete(turns, params)
        store.save(path)
        assert [{**entry, "timestamp": ""} for entry in Transcript.load(path)] == [{**record, "timestamp": ""}]

    def test_failed_call_records_its_error_and_replays_as_that_failure(self, tmp_path):
        # The line holds an empty response and the error's text, between
        # response and timestamp; the error still reaches the caller. The same
        # request asked again for another purpose replays its own reply, in any order.
        failure = BackendError("down: \u2028 \u00e9 \"quoted\"")
        replies = iter([failure, "after"])

        def reply(turns, params):
            if isinstance(answer := next(replies), BackendError):
                raise answer
            return answer

        recorder = Recorder(ScriptedBackend(reply))
        with pytest.raises(BackendError) as caught:
            call_for("critique:task_details@0", recorder.complete, TURNS, PARAMS)
        assert caught.value is failure
        assert call_for("critique:task_details@1", recorder.complete, TURNS, PARAMS) == "after"
        failed, served = loaded = assert_redumps(recorder.write(tmp_path / "t.jsonl"))
        assert list(failed) == ["request_digest", "request", "params", "response", "error", "timestamp", "purpose", "identity"]
        assert (failed["response"], failed["error"]) == ("", str(failure))
        assert "error" not in served
        replay = ReplayBackend(loaded)
        assert call_for("critique:task_details@1", replay.complete, TURNS, PARAMS) == "after"  # the later call first
        with pytest.raises(BackendError) as caught:
            call_for("critique:task_details@0", replay.complete, TURNS, PARAMS)
        assert str(caught.value) == str(failure)
        with pytest.raises(ReplayMiss):
            call_for("critique:task_details@0", replay.complete, TURNS, PARAMS)

    @pytest.mark.parametrize("content", [5, None, ["x"]], ids=["int", "none", "list"])
    def test_turn_content_that_is_not_a_string_fails_load_with_the_request_text(self, tmp_path, content):
        # ChatTurn is the one turn check: it refuses the turn, so no recording can hold it,
        # and a line that holds it anyway fails to load with the request's error text.
        with pytest.raises(ValueError, match="content must be a string"):
            ChatTurn("user", content)
        path = tmp_path / "t.jsonl"
        path.write_text(line(record(request=[{"role": "user", "content": content}])), encoding="utf-8")
        text = "line 1: request must be a list of turns, each with a role in ('system', 'user', 'assistant') and string content"
        with pytest.raises(ValueError, match=re.escape(text)):
            Transcript.load(path)

    @pytest.mark.parametrize("error", [5, None, ["down"]])
    def test_error_that_is_not_a_string_rejected_at_load(self, tmp_path, error):
        path = tmp_path / "t.jsonl"
        path.write_text(line(record(response="", error=error)), encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: .*error"):
            Transcript.load(path)

    def test_lone_surrogate_fails_after_the_call_and_records_nothing(self):
        # The call is made; encoding its request to UTF-8 for the digest then
        # raises, and no line is kept.
        calls = []
        recorder = Recorder(ScriptedBackend(lambda turns, params: calls.append(turns) or "reply"))
        with pytest.raises(UnicodeEncodeError):
            recorder.complete((ChatTurn("user", "a\ud800b"),), PARAMS)
        assert len(calls) == 1 and recorder.stream.getvalue() == ""
        with pytest.raises(UnicodeEncodeError):
            request_digest((ChatTurn("user", "a\ud800b"),), PARAMS)

    def test_streamed_call_is_on_disk_when_the_call_returns(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            store = Transcript(stream=handle)
            recorder = RecordingBackend(ScriptedBackend("reply"), store)
            for expected in (1, 2):
                recorder.complete(TURNS, PARAMS)
                assert len(Transcript.load(path)) == expected
            store.append(line(record(response="built")))
            assert Transcript.load(path)[-1] == record(response="built")


def fanned(fn, items, width, stop_at=None):
    """The results of ``fan_out``, read in order until ``stop_at`` are read."""
    results = []
    with fan_out(fn, items, width) as outcomes:
        for result in outcomes:
            results.append(result)
            if len(results) == stop_at:
                break
    return results


class TestFanOut:
    def test_results_follow_item_order(self):
        def slow_first(n):
            time.sleep(0.01 * (5 - n))
            return n * n

        for width in (1, 3, 5):
            assert fanned(slow_first, range(5), width) == [0, 1, 4, 9, 16]

    def test_width_one_runs_inline(self):
        caller = threading.get_ident()
        before = threading.active_count()

        def where(_):
            return threading.get_ident(), threading.active_count()

        assert fanned(where, range(3), 1) == [(caller, before)] * 3

    def test_stop_returns_same_prefix_at_every_width(self):
        seen = []

        def record(n):
            seen.append(n)
            return n

        for width in (1, 4):
            seen.clear()
            assert fanned(record, range(10), width, stop_at=3) == [0, 1, 2]
            if width == 1:
                assert seen == [0, 1, 2]

    def test_error_surfaces_at_its_item(self):
        seen = []

        def fail_on_two(n):
            seen.append(n)
            if n == 2:
                raise KeyError(n)
            return n

        for width in (1, 4):
            seen.clear()
            read = []
            with pytest.raises(KeyError), fan_out(fail_on_two, range(6), width) as outcomes:
                for result in outcomes:
                    read.append(result)
            assert read == [0, 1]
            if width == 1:
                assert seen == [0, 1, 2]

    def test_width_validated(self):
        with pytest.raises(ValueError), fan_out(str, [1], 0):
            pass

    def test_stop_or_error_lets_no_thread_take_another_item(self):
        seen = []

        def slow_after_two(n):
            seen.append(n)
            if n == 2 and fail:
                raise KeyError(n)
            if n > 2:
                time.sleep(0.05)
            return n

        for fail in (False, True):
            seen.clear()
            if fail:
                with pytest.raises(KeyError):
                    fanned(slow_after_two, range(100), 4)
            else:
                assert fanned(slow_after_two, range(100), 4, stop_at=3) == [0, 1, 2]
            assert len(seen) < 20  # the items in flight at the stop or the error, not all 100

    def test_error_in_the_callers_loop_joins_every_thread(self):
        seen, before = [], threading.active_count()

        def slow(n):
            seen.append(n)
            time.sleep(0.05)
            return n

        with pytest.raises(KeyError), fan_out(slow, range(100), 4) as outcomes:
            for result in outcomes:
                if result == 2:
                    raise KeyError(result)
        assert threading.active_count() == before
        assert len(seen) < 20

    def test_memory_per_item_is_its_result(self):
        """No per-item bookkeeping: a pending Future per item costs about 1.6 KB."""
        tracemalloc.start()
        try:
            fanned(lambda n: n, range(50_000), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * 50_000

    def test_slow_item_holds_up_no_other(self):
        """Item 0 is released only once 30 later items have finished."""
        finished, lock, released = [], threading.Lock(), threading.Event()

        def work(n):
            if n == 0:
                return released.wait(timeout=5)
            with lock:
                finished.append(n)
                if len(finished) == 30:
                    released.set()
            return True

        assert fanned(work, range(100), 4) == [True] * 100

    @settings(max_examples=30, deadline=None)
    @given(
        sleeps=st.lists(st.floats(0, 0.002), max_size=12),
        fail_at=st.integers(0, 12),
        stop_at=st.integers(1, 13),
    )
    def test_prefix_and_error_match_width_one(self, sleeps, fail_at, stop_at):
        def run(width):
            def work(n):
                time.sleep(sleeps[n])
                if n == fail_at:
                    raise KeyError(n)
                return n * n

            before = threading.active_count()
            try:
                outcome = fanned(work, range(len(sleeps)), width, stop_at=stop_at)
            except KeyError as exc:
                outcome = f"KeyError at {exc.args[0]}"
            assert threading.active_count() == before
            return outcome

        expected = run(1)
        for width in range(2, 7):
            assert run(width) == expected


class TestHTTPBackend:
    def _backend(self, base_url: str, **kwargs) -> HTTPBackend:
        kwargs.setdefault("api_key", "test-key")
        kwargs.setdefault("sleep", lambda seconds: None)
        return HTTPBackend("test-model", base_url, **kwargs)

    def test_success(self, provider):
        base_url, server = provider
        server.script.append(ok("hello back"))
        backend = self._backend(base_url)
        assert backend.complete(TURNS, GenerationParams(seed=3)) == "hello back"
        request = server.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["auth"] == "Bearer test-key"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["messages"] == [{"role": "user", "content": "hello"}]
        assert request["body"]["temperature"] == 0.0
        assert request["body"]["max_tokens"] == 512
        assert request["body"]["seed"] == 3

    def test_purpose_is_sent_percent_encoded_and_only_inside_call_for(self, provider):
        # An item id is dataset text: sent raw, one that is not latin-1 or holds a line break fails in http.client.
        base_url, server = provider
        server.script.extend([ok(), ok()])
        backend = self._backend(base_url)
        assert call_for("solve:\u043a\u043b\u044e\u0447\r\n1", backend.complete, TURNS, PARAMS) == "fine"
        assert backend.complete(TURNS, PARAMS) == "fine"
        assert [request["purpose"] for request in server.requests] == ["solve:\u043a\u043b\u044e\u0447\r\n1", None]

    @pytest.mark.parametrize(
        "prefix, path", [("/proxy", "/proxy"), ("/proxy/", "/proxy"), ("/a b/\u00e9", "/a%20b/%C3%A9"), ("/a%20b", "/a%20b")]
    )
    def test_base_url_path_prefixes_the_endpoint(self, provider, prefix, path):
        base_url, server = provider
        server.script.append(ok())
        assert self._backend(base_url + prefix).complete(TURNS, PARAMS) == "fine"
        assert server.requests[0]["path"] == f"{path}/v1/chat/completions"

    def test_seed_omitted_when_unset(self, provider):
        base_url, server = provider
        server.script.append(ok())
        self._backend(base_url).complete(TURNS, PARAMS)
        assert "seed" not in server.requests[0]["body"]

    def test_retries_server_errors_with_backoff(self, provider):
        base_url, server = provider
        server.script.extend([(500, {}), (503, {}), ok("third time")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append)
        assert backend.complete(TURNS, PARAMS) == "third time"
        assert sleeps == [1.0, 2.0]
        assert len(server.requests) == 3

    def test_gives_up_after_three_attempts(self, provider):
        base_url, server = provider
        server.script.extend([(500, {}), (500, {}), (500, {})])
        with pytest.raises(BackendError, match="after 3 attempts"):
            self._backend(base_url).complete(TURNS, PARAMS)
        assert len(server.requests) == 3

    def test_rate_limit_honours_retry_after(self, provider):
        base_url, server = provider
        server.script.extend([(429, {}, {"Retry-After": "3"}), ok("after the wait")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append)
        assert backend.complete(TURNS, PARAMS) == "after the wait"
        assert sleeps == [3.0]
        assert len(server.requests) == 2

    @pytest.mark.parametrize("headers", [{}, {"Retry-After": "soon"}])
    def test_rate_limit_without_delta_seconds_backs_off(self, provider, headers):
        base_url, server = provider
        server.script.extend([(429, {}, headers), (429, {}, headers), ok("third time")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append)
        assert backend.complete(TURNS, PARAMS) == "third time"
        assert sleeps == [1.0, 2.0]

    def test_rate_limit_past_http_date_retries_at_once(self, provider):
        base_url, server = provider
        headers = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
        server.script.extend([(429, {}, headers), (429, {}, headers), ok("third time")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append)
        assert backend.complete(TURNS, PARAMS) == "third time"
        assert sleeps == [0.0, 0.0]

    # RFC 9110 sends GMT; RFC 5322's "-0000" zone parses to a naive datetime.
    @pytest.mark.parametrize("zone", ["GMT", "-0000"])
    def test_rate_limit_honours_retry_after_http_date(self, provider, zone):
        base_url, server = provider
        then = datetime.now(timezone.utc) + timedelta(seconds=30)
        when = format_datetime(then, usegmt=True).replace("GMT", zone)
        server.script.extend([(429, {}, {"Retry-After": when}), ok("after the wait")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append)
        assert backend.complete(TURNS, PARAMS) == "after the wait"
        assert len(sleeps) == 1 and 25 < sleeps[0] <= 30

    def test_rate_limit_gives_up_after_three_attempts(self, provider):
        base_url, server = provider
        server.script.extend([(429, {}, {"Retry-After": "0"})] * 3)
        sleeps: list[float] = []
        with pytest.raises(BackendError, match="after 3 attempts: status 429"):
            self._backend(base_url, sleep=sleeps.append).complete(TURNS, PARAMS)
        assert sleeps == [0.0, 0.0]
        assert len(server.requests) == 3

    # A wait past the request timeout fails the call instead of stalling the
    # worker; retrying sooner than asked would break the provider's rule.
    @pytest.mark.parametrize("ahead", ["delta-seconds", "http-date"])
    def test_retry_after_longer_than_timeout_fails_without_sleeping(self, provider, ahead):
        base_url, server = provider
        then = datetime.now(timezone.utc) + timedelta(days=1)
        when = "86400" if ahead == "delta-seconds" else format_datetime(then, usegmt=True)
        server.script.extend([(429, {}, {"Retry-After": when}), ok("never reached")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append, timeout=60.0)
        with pytest.raises(BackendError, match="status 429: Retry-After asks for a") as excinfo:
            backend.complete(TURNS, PARAMS)
        wait = re.search(r"asks for a ([\d.]+) s wait, longer than the 60 s timeout", str(excinfo.value))
        assert wait and 86000 < float(wait.group(1)) <= 86400
        assert sleeps == []
        assert len(server.requests) == 1

    def test_retry_after_equal_to_timeout_still_waits(self, provider):
        base_url, server = provider
        server.script.extend([(503, {}, {"Retry-After": "5"}), ok("after the wait")])
        sleeps: list[float] = []
        backend = self._backend(base_url, sleep=sleeps.append, timeout=5.0)
        assert backend.complete(TURNS, PARAMS) == "after the wait"
        assert sleeps == [5.0]

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a positive number"):
            HTTPBackend("m", "http://127.0.0.1:9", timeout=timeout)

    @pytest.mark.parametrize(
        "setting",
        [{"timeout": float("inf")}, {"timeout": 1e10}, {"api_key": "\u043a\u043b\u044e\u0447"}, {"api_key": "a\r\nb"}]
        + [{"base_url": url} for url in ("localhost:9", "ftp://h", "http://", "http://h:port", "http://h:65536", "http://a b")],
    )
    def test_settings_every_call_would_fail_on_rejected(self, setting):
        with pytest.raises(
            ValueError, match=f"at most {threading.TIMEOUT_MAX:.0f}|must be latin-1 text without line breaks|cannot be used"
        ):
            HTTPBackend("m", **{"base_url": "http://127.0.0.1:9", **setting})

    def test_longest_timeout_and_a_latin1_key_are_sent(self, provider):
        base_url, server = provider
        server.script.append(ok())
        backend = self._backend(base_url, api_key="cl\xe9", timeout=threading.TIMEOUT_MAX)
        assert backend.complete(TURNS, PARAMS) == "fine"
        assert server.requests[0]["auth"] == "Bearer cl\xe9"

    def test_retry_settings_that_cannot_work_rejected(self):
        with pytest.raises(ValueError, match="backoff_base must be >= 0"):
            HTTPBackend("m", "http://127.0.0.1:9", backoff_base=-1.0)

    def test_attempts_are_not_a_setting(self):
        with pytest.raises(TypeError, match="max_attempts"):
            HTTPBackend("m", "http://127.0.0.1:9", max_attempts=3)

    def test_client_errors_never_retry(self, provider):
        base_url, server = provider
        server.script.append((404, {"error": "nope"}))
        with pytest.raises(BackendError, match="404"):
            self._backend(base_url).complete(TURNS, PARAMS)
        assert len(server.requests) == 1

    def test_malformed_payload_rejected(self, provider):
        base_url, server = provider
        server.script.append((200, {"choices": []}))
        with pytest.raises(BackendError, match="malformed"):
            self._backend(base_url).complete(TURNS, PARAMS)

    @pytest.mark.parametrize(
        "reason, message",
        [("length", r"reply cut at max_tokens \(512\)"), ("content_filter", "reply cut by the provider's content filter")],
    )
    def test_cut_reply_fails_without_retry(self, provider, reason, message):
        base_url, server = provider
        server.script += [ok("half a rep", reason), ok("whole")]
        with pytest.raises(BackendError, match=message):
            self._backend(base_url).complete(TURNS, PARAMS)
        assert len(server.requests) == 1

    @pytest.mark.parametrize("reason", ["stop", "tool_calls", None])
    def test_any_other_finish_reason_is_whole(self, provider, reason):
        base_url, server = provider
        server.script.append(ok("whole", reason))
        assert self._backend(base_url).complete(TURNS, PARAMS) == "whole"

    @pytest.mark.parametrize("content", [5, ["a"], {"text": "a"}, None], ids=["number", "list", "object", "null"])
    def test_non_string_content_rejected(self, provider, content):
        base_url, server = provider
        server.script.append((200, {"choices": [{"message": {"content": content}}]}))
        with pytest.raises(BackendError, match="malformed completion response: content is"):
            self._backend(base_url).complete(TURNS, PARAMS)

    def test_transport_errors_retry_then_fail(self):
        # Nothing listens on this port; connections are refused immediately.
        sleeps: list[float] = []
        backend = HTTPBackend(
            "m", "http://127.0.0.1:9", api_key="", sleep=sleeps.append, timeout=0.2
        )
        with pytest.raises(BackendError, match="transport error"):
            backend.complete(TURNS, PARAMS)
        assert sleeps == [1.0, 2.0]

    def test_base_url_from_environment(self, provider, monkeypatch):
        base_url, server = provider
        server.script.append(ok())
        monkeypatch.setenv(BASE_URL_ENV, base_url)
        monkeypatch.setenv(API_KEY_ENV, "env-key")
        backend = HTTPBackend("m")
        backend.complete(TURNS, PARAMS)
        assert server.requests[0]["auth"] == "Bearer env-key"

    def test_missing_base_url_rejected(self, monkeypatch):
        monkeypatch.delenv(BASE_URL_ENV, raising=False)
        with pytest.raises(ValueError, match=BASE_URL_ENV):
            HTTPBackend("m")

    def test_no_auth_header_without_key(self, provider, monkeypatch):
        base_url, server = provider
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        server.script.append(ok())
        HTTPBackend("m", base_url, sleep=lambda s: None).complete(TURNS, PARAMS)
        assert server.requests[0]["auth"] is None

    def test_env_var_names(self):
        assert API_KEY_ENV == "MPO_API_KEY"
        assert BASE_URL_ENV == "MPO_BASE_URL"


class TestKeepAlive:
    """What a keep-alive client owes a provider: few connections, none left open, and no
    attempt spent on a connection the server closed while it was idle."""

    def test_connection_closed_while_idle_costs_no_attempt(self):
        server = Provider(idle_close=True)
        sleeps: list[float] = []
        with server.serving() as base_url:
            backend = HTTPBackend("m", base_url, sleep=sleeps.append)
            for _ in range(3):
                assert backend.complete(TURNS, PARAMS) == "fine"
                assert server.closed.acquire(timeout=5), "the server did not close the connection"
        assert sleeps == []
        assert len(server.requests) == 3

    def test_rounds_of_threads_share_the_connections(self):
        # fan_out starts fresh threads each round; a connection kept per thread would
        # open 5 more every round. Frequent thread switches stress the shared pool.
        server, interval = Provider(delay=0.02), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server.serving() as base_url:
                backend = HTTPBackend("m", base_url, sleep=lambda seconds: None)
                for _ in range(3):
                    with fan_out(lambda index: backend.complete(TURNS, PARAMS), range(5), 5) as results:
                        assert list(results) == ["fine"] * 5
                del backend
        finally:
            sys.setswitchinterval(interval)
        assert len(server.requests) == 15
        assert len({request["port"] for request in server.requests}) <= 5

    def test_dropping_the_backend_closes_its_connections(self):
        server = Provider(delay=0.02)
        with server.serving() as base_url:
            backend = HTTPBackend("m", base_url, sleep=lambda seconds: None)
            with fan_out(lambda index: backend.complete(TURNS, PARAMS), range(3), 3) as results:
                assert list(results) == ["fine"] * 3
            del backend
            gc.collect()
            opened = len({request["port"] for request in server.requests})
            assert all(server.closed.acquire(timeout=5) for _ in range(opened)), "a connection was left open"

    def test_retry_reuses_the_pooled_connection(self, provider):
        base_url, server = provider
        server.script.extend([(503, {}), ok("after the retry")])
        sleeps: list[float] = []
        assert HTTPBackend("m", base_url, sleep=sleeps.append).complete(TURNS, PARAMS) == "after the retry"
        assert sleeps == [1.0]
        ports = [request["port"] for request in server.requests]
        assert len(ports) == 2 and len(set(ports)) == 1


class TestHTTPS:
    """TLS to a loopback server whose self-signed certificate (``tests/data/loopback_cert.pem``,
    for 127.0.0.1) is trusted only through ``SSL_CERT_FILE``: there is no unverified fallback."""

    @pytest.fixture
    def server(self, data_dir):
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(data_dir / "loopback_cert.pem", data_dir / "loopback_key.pem")
        return Provider(tls=tls)

    def test_trusted_through_ssl_cert_file(self, server, data_dir, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(data_dir / "loopback_cert.pem"))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        with server.serving() as base_url:
            assert HTTPBackend("m", base_url, sleep=lambda seconds: None).complete(TURNS, PARAMS) == "fine"
        assert len(server.requests) == 1

    def test_untrusted_certificate_fails_every_attempt(self, server, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        sleeps: list[float] = []
        with server.serving() as base_url:
            with pytest.raises(BackendError, match=r"after 3 attempts: transport error: .*CERTIFICATE_VERIFY_FAILED"):
                HTTPBackend("m", base_url, sleep=sleeps.append).complete(TURNS, PARAMS)
        assert sleeps == [1.0, 2.0]
        assert server.requests == []

    def test_pooled_connections_share_one_context(self, server, data_dir, monkeypatch):
        # Each context loads the CA store, about 40 ms of CPU: once per backend, not per connection.
        monkeypatch.setenv("SSL_CERT_FILE", str(data_dir / "loopback_cert.pem"))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        loads, load = [], ssl.SSLContext.load_default_certs
        monkeypatch.setattr(ssl.SSLContext, "load_default_certs", lambda context, *args: loads.append(load(context, *args)))
        server.delay = 0.02  # each answer holds its connection, so a round opens several
        with server.serving() as base_url:
            backend = HTTPBackend("m", base_url, sleep=lambda seconds: None)
            for _ in range(3):
                with fan_out(lambda index: backend.complete(TURNS, PARAMS), range(5), 5) as results:
                    assert list(results) == ["fine"] * 5
        assert len({request["port"] for request in server.requests}) > 1
        assert len(loads) == 1


# mpo hashes with CPython's own SHA-256 when the interpreter has one; only a
# build without it leaves mpo on hashlib, which loads OpenSSL (``_hashlib``).
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
NO_BUILTIN_SHA256 = "this interpreter has no _sha2 or _sha256, so mpo hashes through OpenSSL's _hashlib"

# Runs in a fresh interpreter: other tests load ``http.client`` into this one.
# The modules named after the two paths must be unloaded when the offline runs end.
_OFFLINE_RUNS = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import mpo, mpo.cli

    data, out = Path(sys.argv[1]), Path(sys.argv[2])
    prompt = str(data / "multi_task_tagged.txt")
    for argv in (
        ["optimize", prompt, "--mock", "--iterations", "1", "--record", "--out", str(out / "rec")],
        ["optimize", prompt, "--iterations", "1", "--replay", str(out / "rec" / "transcript.jsonl"),
         "--out", str(out / "replay")],
        ["eval", prompt, str(data / "mcq_ten.jsonl"), "--mock", "--out", str(out / "eval")],
    ):
        assert mpo.cli.main(argv) == 0, argv
    loaded = [name for name in sys.argv[3:] if name in sys.modules]
    assert not loaded, f"offline runs loaded {loaded}"
    mpo.HTTPBackend("m", "http://127.0.0.1:9")
    assert "http.client" in sys.modules, "a live backend did not load http.client"
    assert "requests" not in sys.modules, "a live backend loaded requests"
    """
)


def test_offline_runs_never_load_the_http_stack(data_dir, tmp_path):
    unloaded = ["requests", "urllib3", "http.client"] + (["_hashlib"] if BUILTIN_SHA256 else [])
    result = fresh_python("-c", _OFFLINE_RUNS, str(data_dir), str(tmp_path), *unloaded)
    assert result.returncode == 0, result.stderr
    if not BUILTIN_SHA256:
        pytest.skip(f"the _hashlib check: {NO_BUILTIN_SHA256}")


# Loaded only where used: http.client by a live backend (requests and urllib3
# by nothing: mpo has no runtime dependency), datetime by a recorded call or an
# HTTP-date Retry-After, configparser by --config, csv by mmlu_csv, difflib by a
# prompt diff; fan_out needs no concurrent.futures, and hashing needs no OpenSSL
# (_hashlib).
DEFERRED_MODULES = (
    "requests", "urllib3", "http.client", "concurrent.futures", "datetime", "csv", "difflib", "configparser", "_hashlib"
)


def test_importing_the_cli_leaves_deferred_modules_unloaded():
    # What every offline command pays before it starts, in a fresh interpreter.
    deferred = [name for name in DEFERRED_MODULES if BUILTIN_SHA256 or name != "_hashlib"]
    code = f"import sys, mpo.cli; print(*(name for name in {deferred!r} if name in sys.modules))"
    result = fresh_python("-c", code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n", f"import mpo.cli loaded {result.stdout.split()}"
    if not BUILTIN_SHA256:
        pytest.skip(f"the _hashlib check: {NO_BUILTIN_SHA256}")


# Every digest mpo writes or matches on, for fixed inputs: a multi-turn
# non-ASCII request, seed_run's final prompt, and an eval of mcq_ten whose
# extracted letters are MockSolver's hash picks.
_DIGESTS = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    import mpo

    data = Path(sys.argv[1])
    turns = (
        mpo.ChatTurn("system", "Réponds en français, s'il te plaît."),
        mpo.ChatTurn("user", "漢字 \\U0001f600 \\u2028 naïve \\"quoted\\"\\n"),
        mpo.ChatTurn("assistant", "Answer: B"),
        mpo.ChatTurn("user", "Ещё раз?"),
    )
    state = mpo.parse_structured_prompt((data / "seed_run" / "final_prompt.txt").read_text(encoding="utf-8"))
    result = mpo.evaluate(state, mpo.load_dataset(data / "mcq_ten.jsonl", "generic_jsonl"), mpo.MockSolver())
    print(json.dumps({
        "module": mpo.backends.sha256.__module__,
        "request": mpo.request_digest(turns, mpo.GenerationParams(max_output_tokens=64)),
        "state": state.digest,
        "ids": result.ids_digest,
        "picks": [record.extracted for record in result.records],
    }))
    """
)


@pytest.mark.skipif(not BUILTIN_SHA256, reason=NO_BUILTIN_SHA256)
@pytest.mark.skipif(not importlib.util.find_spec("_hashlib"), reason="no OpenSSL (_hashlib) to fall back to")
def test_hashlib_fallback_gives_the_built_in_digests(data_dir):
    # An interpreter without its own SHA-256 is stood in for by blocking both
    # built-in modules before mpo is imported.
    block = 'import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
    runs = []
    for prelude in ("", block):
        result = fresh_python("-c", prelude + _DIGESTS, str(data_dir), timeout=60)
        assert result.returncode == 0, result.stderr
        runs.append(json.loads(result.stdout))
    built_in, fallback = runs
    assert built_in.pop("module") in ("_sha2", "_sha256")
    assert fallback.pop("module") == "_hashlib"
    assert fallback == built_in
    assert built_in["picks"] != [built_in["picks"][0]] * len(built_in["picks"])
