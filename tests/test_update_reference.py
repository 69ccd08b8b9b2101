"""The section-update fast paths against the loops they replaced.

``_truncate_to_token_budget`` keeps a running token total instead of
re-joining and re-splitting the section for every popped line, and
``Section`` scans lines for tags only when its content holds a "<". The
reference functions below are the earlier loops, kept as they were apart
from returning what the truncation warning logged, and each property
requires the same result from both.

``optimize`` skips sections saturated at the token budget; the reference
round loop critiques every section in every round, as before. Once a round
saturates every section, ``optimize`` repeats it instead of calling ``step``
again; it is checked against a loop that calls ``step`` on every round, and
``gradients.jsonl``, which then reuses the repeated round's encoding, against
the line that was encoded whole for every round.

A section update continues the incoming section's dedup pass over the
appended lines only, checks only those lines for tags, and builds the landed
section from what the pass kept; ``reference_update`` is the chain it
replaced, which rebuilt and rescanned the whole section.

``PromptState.digest`` is computed once per state, and a state whose sections
all carry over takes its parent's; ``history.jsonl`` encodes each distinct
section once and splices it into the state's line. Replay matches requests
by equality of their turns and params, with no digest, in recorded order or
through an index keyed by the request; it is checked against a replay keyed
by ``request_digest``, the documented match rule. The others are each
checked against the code they replaced.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import pickle
import random
import sys
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as local
from mpo import (
    CANONICAL_ORDER,
    BackendError,
    ChatTurn,
    ConsolidationRejected,
    DedupMode,
    GenerationParams,
    OptimizerConfig,
    PromptState,
    Provenance,
    ReplayBackend,
    ReplayMiss,
    RunHistory,
    Section,
    SectionKind,
    TagCollision,
    TextualGradient,
    apply_gradient,
    consolidate,
    normalize_line,
    optimize,
    render_prompt,
    request_digest,
    request_gradient,
    section_context,
    step,
    token_count,
)
from mpo import backends, cli, optimizer, schema
from mpo.backends import CriticBackend, _params_json
from mpo.cli import _gradient_lines, _history_lines, _run_artifacts, main
from mpo.optimizer import SectionUpdate, _truncate_to_token_budget
from mpo.schema import TAG_STRING_RE, _parse_tag_line
from solvers import Recorder, ScriptedBackend, assert_same_run, line, record


def reference_truncate(section: Section, budget: int) -> tuple[Section, int, tuple | None]:
    """The join-and-split budget cut, plus the numbers its warning logged."""
    if token_count(section.content) <= budget:
        return section, 0, None
    lines = section.content.splitlines()
    cut = 0
    while len(lines) > 1 and token_count("\n".join(lines)) > budget:
        cut += bool(lines.pop().strip())
    while lines and not lines[-1].strip():
        lines.pop()
    truncated = "\n".join(lines)
    warning = (section.kind.display_name, budget, token_count(section.content), token_count(truncated))
    return Section(section.kind, truncated, section.provenance), cut, warning


def reference_collision(kind: SectionKind, content: str) -> str | None:
    """The message of the TagCollision the every-line scan raised, or None."""
    content = "\n".join(content.strip().splitlines())
    match = TAG_STRING_RE.search(content)
    if match:
        return f"{kind.display_name} content contains the tag string {match.group(0)!r}"
    for line in content.splitlines():
        if _parse_tag_line(line.strip()) is not None:
            return (
                f"{kind.display_name} content contains a line that "
                f"parses as the {line.strip()!r} tag"
            )
    return None


@contextmanager
def budget_warnings():
    """Collect the args of the optimizer's truncation warnings."""
    records: list[tuple] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: records.append(record.args)
    logger = logging.getLogger("mpo.optimizer")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


_WORDS = st.sampled_from(("keep", "answers", "short", "A", "letter", "-", "1.", "Only!"))
# Some separators also break lines (\x0b, \x1c, \x85, \u2028), so
# normalization turns one drawn line into several.
_GAPS = st.sampled_from((" ", "  ", "\t", "\xa0", "\u3000", "\x0b", "\x1c", "\x85", "\u2028"))


@st.composite
def _lines(draw) -> str:
    kind = draw(st.sampled_from(("blank", "spaces", "words", "long")))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.text(alphabet=" \t\xa0\u3000", min_size=1, max_size=4))
    size = (1, 8) if kind == "words" else (20, 60)
    words = draw(st.lists(_WORDS, min_size=size[0], max_size=size[1]))
    gaps = draw(st.lists(_GAPS, min_size=len(words), max_size=len(words)))
    return "".join(gap + word for gap, word in zip(gaps, words))


@st.composite
def sections_and_budgets(draw) -> tuple[Section, int]:
    lines = draw(st.lists(_lines(), min_size=1, max_size=25))
    section = Section(
        draw(st.sampled_from(CANONICAL_ORDER)),
        "\n".join(lines),
        draw(st.sampled_from(tuple(Provenance))),
    )
    return section, draw(st.integers(1, token_count(section.content) + 5))


class TestTruncationMatchesReference:
    @settings(max_examples=200)
    @given(case=sections_and_budgets())
    def test_same_section_cut_and_warning(self, case):
        section, budget = case
        expected, expected_cut, expected_warning = reference_truncate(section, budget)
        # A fresh copy, so the reference's reads do not warm the cache.
        fresh = Section(section.kind, section.content, section.provenance)
        with budget_warnings() as warnings:
            result, cut = _truncate_to_token_budget(fresh, budget)
        assert (result, cut) == (expected, expected_cut)
        assert result.provenance is expected.provenance
        # The reference also warned when it cut nothing (a one-line section
        # over the budget); the warning now comes only with a cut.
        assert warnings == ([expected_warning] if expected_cut else [])


_TAGGY = st.sampled_from(
    (
        "<Task>", "< task  details >", "<OUTPUT FORMAT>", "  <Context>  ", "<Foo>",
        "<task", "a < b", "x<Constraints>y", "<System\u3000Role>", "<>", "<<Task>>",
    )
)
_PLAIN = st.text(alphabet=st.characters(codec="utf-8", exclude_characters="<"), max_size=30)


class TestTagScanMatchesReference:
    @settings(max_examples=200)
    @given(
        kind=st.sampled_from(CANONICAL_ORDER),
        lines=st.lists(st.one_of(_PLAIN, _TAGGY, st.text(max_size=30)), max_size=8),
    )
    def test_collides_exactly_when_every_line_scan_did(self, kind, lines):
        content = "\n".join(lines)
        expected = reference_collision(kind, content)
        try:
            Section(kind, content)
        except TagCollision as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @settings(max_examples=200)
    @given(kind=st.sampled_from(CANONICAL_ORDER), content=_PLAIN)
    def test_content_without_angle_bracket_never_collides(self, kind, content):
        assert reference_collision(kind, content) is None
        assert Section(kind, content).content == "\n".join(content.strip().splitlines())


class TestCachedTokenCount:
    @settings(max_examples=100)
    @given(section=local.sections(SectionKind.TASK_DETAILS))
    def test_cached_section_behaves_like_fresh(self, section):
        fresh = Section(section.kind, section.content, section.provenance)
        assert section.token_count == len(section.content.split())
        assert optimizer._line_pass(section) == optimizer._LinePass().then(section.content)
        cached = {"token_count", "line_pass"}
        assert cached <= vars(section).keys() and not cached & vars(fresh).keys()
        assert {name: value for name, value in vars(section).items() if name not in cached} == vars(fresh)
        assert section == fresh
        assert hash(section) == hash(fresh)
        assert repr(section) == repr(fresh)
        restored = pickle.loads(pickle.dumps(section))
        assert restored == fresh
        assert restored.token_count == len(fresh.content.split())
        assert optimizer._line_pass(restored) == optimizer._LinePass().then(fresh.content)

    def test_fields_unchanged(self):
        fields = [(f.name, f.type) for f in dataclasses.fields(Section)]
        assert fields == [("kind", "SectionKind"), ("content", "str"), ("provenance", "Provenance")]


def reference_digest(state: PromptState) -> str:
    """The digest as every read computed it: render, then SHA-256."""
    return hashlib.sha256(render_prompt(state).encode("utf-8")).hexdigest()


@contextmanager
def counting_renders():
    """Every ``render_prompt`` call the schema makes, for the block's span."""
    renders: list = []

    def counting(state):
        renders.append(state)
        return render_prompt(state)

    with mock.patch.object(schema, "render_prompt", counting):
        yield renders


class TestCachedDigest:
    @settings(max_examples=100)
    @given(state=local.prompt_states())
    def test_cached_state_behaves_like_fresh(self, state):
        fresh = PromptState(state.sections, state.iteration, state.parent_digest)
        assert state.digest == reference_digest(state)
        assert "_digest" in vars(state) and "_digest" not in vars(fresh)
        assert {name: value for name, value in vars(state).items() if name != "_digest"} == vars(fresh)
        assert state == fresh
        assert hash(state) == hash(fresh)
        assert repr(state) == repr(fresh)
        restored = pickle.loads(pickle.dumps(state))
        assert restored == fresh
        assert restored.digest == reference_digest(fresh)

    @settings(max_examples=100)
    @given(state=local.prompt_states(), other=local.sections(SectionKind.CONSTRAINTS))
    def test_replaced_state_gets_its_own_digest(self, state, other):
        state.digest  # cached on the original before it is replaced
        sections = tuple(other if s.kind is other.kind else s for s in state.sections)
        replaced = dataclasses.replace(state, sections=sections)
        assert "_digest" not in vars(replaced)
        assert replaced.digest == reference_digest(replaced)
        # The digest covers the rendered prompt only, not the iteration.
        renumbered = dataclasses.replace(state, iteration=state.iteration + 1)
        assert "_digest" not in vars(renumbered)
        assert renumbered.digest == state.digest

    @settings(max_examples=100)
    @given(state=local.prompt_states())
    def test_carried_over_state_keeps_parent_digest(self, state):
        state.digest
        with counting_renders() as renders:
            carried = state.successor(state.sections)
            digest = carried.digest
        assert renders == []
        assert digest == reference_digest(carried) == state.digest
        assert (carried.iteration, carried.parent_digest) == (state.iteration + 1, state.digest)
        fresh = PromptState(carried.sections, carried.iteration, carried.parent_digest)
        assert "_digest" in vars(carried) and "_digest" not in vars(fresh)
        assert {name: value for name, value in vars(carried).items() if name != "_digest"} == vars(fresh)
        assert carried == fresh
        assert hash(carried) == hash(fresh)
        assert repr(carried) == repr(fresh)
        restored = pickle.loads(pickle.dumps(carried))
        assert restored == fresh
        assert restored.digest == reference_digest(fresh)

    @settings(max_examples=100)
    @given(state=local.prompt_states(), index=st.integers(0, 4))
    def test_successor_with_a_new_section_object_renders(self, state, index):
        # An equal section that is not the parent's own object still renders.
        state.digest
        sections = tuple(
            Section(s.kind, s.content, s.provenance) if i == index else s for i, s in enumerate(state.sections)
        )
        with counting_renders() as renders:
            successor = state.successor(sections)
            digest = successor.digest
        assert len(renders) == 1
        assert digest == reference_digest(successor) == state.digest

    def test_all_carried_step_renders_nothing(self):
        state = PromptState.from_sections(Section(kind, f"{kind.value} text") for kind in CANONICAL_ORDER)
        state.digest
        with counting_renders() as renders:
            result = step(state, ScriptedBackend(""))
            assert result.state.digest == state.digest
        assert renders == [] and result.state.sections == state.sections
        assert result.state.digest == reference_digest(result.state)

    def test_fields_unchanged(self):
        fields = [(f.name, f.type) for f in dataclasses.fields(PromptState)]
        assert fields == [
            ("sections", "tuple[Section, ...]"), ("iteration", "int"), ("parent_digest", "str | None"),
        ]


def reference_state_line(state: PromptState) -> dict:
    """The ``history.jsonl`` record that was encoded whole for every state."""
    return {
        "iteration": state.iteration,
        "digest": state.digest,
        "parent_digest": state.parent_digest,
        "sections": [
            {
                "kind": section.kind.value,
                "content": section.content,
                "provenance": section.provenance.value,
            }
            for section in state.sections
        ],
    }


def reference_gradient_line(index: int, updates: tuple[SectionUpdate, ...]) -> dict:
    """The ``gradients.jsonl`` record that was encoded whole for every round."""
    return {
        "iteration": index,
        "gradients": [
            {
                "target": update.gradient.target.value,
                "directives": list(update.gradient.directives),
                "critic_identity": update.gradient.critic_identity,
                "removed": update.removed,
                "truncated": update.truncated,
                "saturated": update.saturated,
            }
            for update in updates
        ],
        "failures": [
            {"section": update.gradient.target.value, "reason": update.failure}
            for update in updates
            if update.failure
        ],
    }


# Non-ASCII, quotes, backslashes and characters JSON treats specially; a
# section normalizes \x1c and \u2028 into line breaks, a parent digest keeps them.
_AWKWARD = st.text(
    alphabet=st.sampled_from(("a", " ", "\n", "\t", "\xe9", "\u6f22", "\U0001f600", '"', "\\", "\x1c", "\u2028", "\x00")),
    max_size=12,
)


@st.composite
def states_sharing_sections(draw) -> tuple[PromptState, ...]:
    """States drawn from a small pool of section objects per kind, empty
    sections included, so most states share sections with others."""
    provenances = st.sampled_from(tuple(Provenance))
    pool = {
        kind: [Section(kind, draw(_AWKWARD), draw(provenances)) for _ in range(draw(st.integers(1, 3)))]
        for kind in CANONICAL_ORDER
    }
    return tuple(
        PromptState(
            tuple(draw(st.sampled_from(pool[kind])) for kind in CANONICAL_ORDER),
            iteration,
            draw(st.none() | _AWKWARD),
        )
        for iteration in range(draw(st.integers(1, 6)))
    )


class TestHistoryLinesMatchReference:
    @settings(max_examples=200)
    @given(states=states_sharing_sections())
    def test_each_line_is_the_whole_state_encoded(self, states):
        expected = [line(reference_state_line(s)) for s in states]
        assert list(_history_lines(states)) == expected

    def test_shared_and_equal_sections(self):
        # Equal content in distinct objects, and one object in every state.
        shared = Section(SectionKind.CONSTRAINTS, 'Say "yes" \\ \u6f22\u2028next')
        states = tuple(
            dataclasses.replace(
                PromptState.from_sections([shared, Section(SectionKind.TASK_DETAILS, "Same text.")]),
                iteration=index,
                parent_digest=parent,
            )
            for index, parent in enumerate((None, "\x1c\u2028", "d"))
        )
        expected = [line(reference_state_line(s)) for s in states]
        assert list(_history_lines(states)) == expected


_DIRECTIVE = st.text(
    alphabet=st.sampled_from(("a", " ", "\xe9", "\u6f22", "\U0001f600", '"', "\\", "\u2028", "\x00")), min_size=1, max_size=8
).filter(str.strip)


@st.composite
def update_rounds(draw) -> tuple[SectionUpdate, ...]:
    counts = st.integers(0, 3)
    return tuple(
        SectionUpdate(
            TextualGradient(kind, tuple(draw(st.lists(_DIRECTIVE, max_size=2))), draw(_AWKWARD)),
            draw(st.none() | _AWKWARD),
            *(draw(counts) for _ in range(4)),
            saturated=draw(st.booleans()),
        )
        for kind in CANONICAL_ORDER
    )


@st.composite
def histories_repeating_rounds(draw) -> RunHistory:
    """Rounds drawn from a small pool of tuples, so one tuple object often
    follows itself, comes back after another, or has an equal twin."""
    pool = draw(st.lists(update_rounds(), min_size=1, max_size=3))
    pool += [tuple(round_) for round_ in pool[: draw(st.integers(0, len(pool)))]]  # equal, not the same object
    rounds = tuple(draw(st.lists(st.sampled_from(pool), max_size=8)))
    states = [PromptState.from_sections(())]
    for _ in rounds:
        states.append(states[-1].successor(states[-1].sections))
    return RunHistory(tuple(states), rounds)


class TestGradientLinesMatchReference:
    @settings(max_examples=200)
    @given(history=histories_repeating_rounds())
    def test_each_line_is_the_whole_round_encoded(self, history):
        expected = [line(reference_gradient_line(index, updates)) for index, updates in enumerate(history.updates)]
        assert list(_gradient_lines(history)) == expected

    def test_a_repeated_round_reuses_its_encoding(self):
        updates = tuple(
            SectionUpdate(TextualGradient.empty(kind, "c"), None, 0, 0, 0, 0, saturated=True) for kind in CANONICAL_ORDER
        )
        states = [PromptState.from_sections(())]
        for _ in range(3):
            states.append(states[-1].successor(states[-1].sections))
        history = RunHistory(tuple(states), (updates,) * 3)
        with mock.patch.object(cli.json, "dumps", wraps=json.dumps) as dumps:
            lines = list(_gradient_lines(history))
        assert dumps.call_count == 1
        assert lines == [line(reference_gradient_line(i, updates)) for i in range(3)]


def recorded_digest(record: dict) -> str:
    """``request_digest`` of a record's request, over its params exactly as recorded."""
    turns = [ChatTurn(turn["role"], turn["content"]) for turn in record["request"]]
    return request_digest(turns, SimpleNamespace(canonical_json=_params_json(record["params"])))


# Few distinct values, so equal requests come up often; ":", digits and quotes
# are what an encoding of the turns could confuse.
_REQUESTS = st.tuples(
    st.lists(
        st.builds(
            ChatTurn,
            st.sampled_from(("system", "user", "assistant")),
            st.text(alphabet=st.sampled_from(("a", "b", ":", "1", "\xe9", '"')), max_size=3),
        ),
        max_size=3,
    ).map(tuple),
    st.builds(
        GenerationParams,
        temperature=st.sampled_from((0.0, 0.5)),
        max_output_tokens=st.sampled_from((1, 512)),
        seed=st.none() | st.integers(0, 1),
    ),
)


class TestReplayKeyMatchesDigest:
    @settings(max_examples=300)
    @given(recorded=_REQUESTS, live=_REQUESTS)
    def test_served_exactly_when_digests_match(self, recorded, live):
        recorder = Recorder(ScriptedBackend("reply"))
        recorder.complete(*recorded)
        try:  # the records are read back from their lines, as a transcript is loaded from disk
            served = ReplayBackend(recorder.records()).complete(*live) == "reply"
        except ReplayMiss:
            served = False
        assert served == (request_digest(*recorded) == request_digest(*live))


class ReferenceReplay(CriticBackend):
    """Replay by the documented match rule: every record indexed at load by
    the digest of its request, every live request looked up by its digest."""

    def __init__(self, records: list[dict]) -> None:
        self._queues: dict[str, deque[str]] = {}
        for record in records:
            self._queues.setdefault(recorded_digest(record), deque()).append(record["response"])

    def complete(self, turns, params) -> str:
        queue = self._queues.get(request_digest(turns, params))
        if queue:
            return queue.popleft()
        raise ReplayMiss(
            f"no unconsumed recorded response for request digest "
            f"{request_digest(turns, params)}; the run diverged from the recording"
        )


# 0 and 0.0 are distinct params, as they are in a transcript read from disk.
_LIVE_PARAMS = st.builds(
    GenerationParams,
    temperature=st.sampled_from((0, 0.0, 0.5)),
    max_output_tokens=st.sampled_from((1, 512)),
    seed=st.none() | st.just(1),
)


@st.composite
def replay_runs(draw) -> tuple[list[dict], list]:
    """A recording from a small pool of requests, so duplicates come up, with
    params as raw JSON (some missing a key, so no live request matches), and
    the live requests: a prefix in recorded order, the rest shuffled, with
    unrecorded requests and extra copies of recorded ones mixed in."""
    turns = st.lists(
        st.builds(ChatTurn, st.sampled_from(("system", "user")), st.sampled_from(("", "a", "b:", "\xe9"))),
        min_size=1, max_size=2,
    ).map(tuple)
    pool = draw(st.lists(st.tuples(turns, _LIVE_PARAMS), min_size=1, max_size=4))
    recorded = draw(st.lists(st.sampled_from(pool), max_size=8))
    entries = []
    for index, (request, params) in enumerate(recorded):
        raw = json.loads(json.dumps(params.to_dict()))
        if draw(st.integers(0, 5)) == 0:
            del raw[draw(st.sampled_from(sorted(raw)))]
        entries.append(record(request, request_digest="label", params=raw, response=f"response {index}", timestamp=""))
    split = draw(st.integers(0, len(recorded)))
    live = recorded[:split] + draw(st.permutations(recorded[split:]))
    for _ in range(draw(st.integers(0, 3))):
        live.insert(draw(st.integers(0, len(live))), draw(st.sampled_from(pool)))
    return entries, live


def replay_outcomes(backend, live: list) -> list:
    outcomes = []
    for turns, params in live:
        try:
            outcomes.append(backend.complete(turns, params))
        except ReplayMiss as exc:
            outcomes.append(("miss", str(exc)))
    return outcomes


class TestReplayInOrderMatchesReference:
    @settings(max_examples=400)
    @given(run=replay_runs())
    def test_same_response_and_same_misses_in_any_arrival_order(self, run):
        records, live = run
        assert replay_outcomes(ReplayBackend(records), live) == replay_outcomes(ReferenceReplay(records), live)

    @staticmethod
    def replay_seed_run(data_dir, out, monkeypatch) -> ReplayBackend:
        """Replay the pinned seed run into ``out``; the backend that served it."""
        seed = data_dir / "seed_run"
        args = ["optimize", str(data_dir / "multi_task_tagged.txt"), "--dedup", "lexical_then_llm"]
        args += ["--iterations", "2", "--replay", str(seed / "transcript.jsonl"), "--out", str(out)]
        built: list[ReplayBackend] = []

        def build(records: list[dict]) -> ReplayBackend:
            built.append(ReplayBackend(records))
            return built[-1]

        monkeypatch.setattr(cli, "ReplayBackend", build)
        assert main(args) == 0
        assert_same_run(seed, out)
        # Every record was served, and each key left once its queue emptied.
        assert built[0]._index == {}
        return built[0]

    def test_in_order_seed_replay_hashes_nothing(self, data_dir, tmp_path, capsys, monkeypatch):
        # A served request is looked up by its turns and params: no digest.
        monkeypatch.setattr(backends, "request_digest", mock.Mock(side_effect=AssertionError("digest computed")))
        self.replay_seed_run(data_dir, tmp_path / "o", monkeypatch)

    def test_reversed_seed_replay_writes_the_pins(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "step", functools.partial(step, process_order=CANONICAL_ORDER[::-1]))
        self.replay_seed_run(data_dir, tmp_path / "o", monkeypatch)

    def test_threads_consume_each_entry_once(self):
        # Each of 4 requests recorded 25 times with its own responses, asked
        # for by 8 threads under forced switches: every response is served
        # exactly once, none twice and none lost.
        responses = iter(range(100))
        recorder = Recorder(ScriptedBackend(lambda turns, params: str(next(responses))))
        requests = [((ChatTurn("user", str(i % 4)),), GenerationParams()) for i in range(100)]
        for request in requests:
            recorder.complete(*request)
        replay = ReplayBackend(recorder.records())
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                served = list(pool.map(lambda request: replay.complete(*request), requests, timeout=60))
        finally:
            sys.setswitchinterval(previous)
        assert sorted(served, key=int) == [record["response"] for record in recorder.records()]
        # Response n was recorded for request n, so it answers that request's turns.
        assert all(int(response) % 4 == i % 4 for i, response in enumerate(served))

    def test_every_record_is_indexed_at_build(self):
        served = itertools.count()
        recorder = Recorder(ScriptedBackend(lambda turns, params: turns[0].content.upper() + str(next(served))))
        requests = [((ChatTurn("user", text),), GenerationParams()) for text in ("a", "b", "a", "c")]
        for request in requests:
            recorder.complete(*request)
        replay = ReplayBackend(recorder.records())

        def key(text: str) -> tuple:
            return (("user", text),), _params_json(GenerationParams().to_dict())

        assert replay._index == {key("a"): deque(["A0", "A2"]), key("b"): deque(["B1"]), key("c"): deque(["C3"])}
        assert replay.complete(*requests[3]) == "C3"
        assert key("c") not in replay._index  # a key goes once its queue is empty
        assert replay.complete(*requests[0]) == "A0"
        with pytest.raises(ReplayMiss):
            replay.complete((ChatTurn("user", "z"),), GenerationParams())
        assert replay._index == {key("a"): deque(["A2"]), key("b"): deque(["B1"])}
        assert [replay.complete(*requests[i]) for i in (2, 1)] == ["A2", "B1"]
        assert replay._index == {}
        with pytest.raises(ReplayMiss):
            replay.complete(*requests[0])


def reference_optimize(initial: PromptState, critic, config: OptimizerConfig) -> list:
    """The round loop before saturated sections were skipped, for lexical
    dedup: every section is critiqued in every round and the budget cuts
    whatever does not fit."""
    states = [initial]
    for _ in range(config.iterations):
        state = states[-1]
        landed = []
        for kind in CANONICAL_ORDER:
            section = state.section(kind)
            gradient = request_gradient(critic, section, section_context(state, kind))
            if not gradient.is_empty:
                cleaned = reference_lexical_pass(reference_apply(section, gradient))
                section, _ = _truncate_to_token_budget(cleaned, config.max_section_tokens)
            landed.append(section)
        states.append(PromptState(tuple(landed), state.iteration + 1, state.digest))
    return states


class CountingCritic(ScriptedBackend):
    """Replies with up to three lines of the pool, picked by a generator
    seeded with the request, so a reply depends only on what was asked."""

    def __init__(self, pool: list[str], salt: int) -> None:
        super().__init__(self._reply)
        self.pool, self.salt, self.calls = pool, salt, 0

    def _reply(self, turns, params) -> str:
        self.calls += 1
        rng = random.Random(f"{self.salt}:{turns[-1].content}")
        lines = rng.sample(self.pool, rng.randint(0, min(3, len(self.pool))))
        return "\n".join(line.upper() if rng.random() < 0.2 else f"- {line}" for line in lines)


class GrowingCritic(CountingCritic):
    """A :class:`CountingCritic` that proposes at least one line, picked by a
    generator also seeded with the call's number: a section whose request
    repeats still grows, so runs reach the round that saturates every section.
    Two runs get the same replies only while they make the same calls."""

    def _reply(self, turns, params) -> str:
        self.calls += 1
        rng = random.Random(f"{self.salt}:{self.calls}:{turns[-1].content}")
        lines = rng.sample(self.pool, rng.randint(1, min(3, len(self.pool))))
        return "\n".join(line.upper() if rng.random() < 0.2 else f"- {line}" for line in lines)


@st.composite
def saturating_runs(draw) -> tuple[PromptState, list[str], int]:
    """Lexically clean sections within the budget, and a pool of directive
    lines that all have the same token count."""
    words = draw(st.integers(1, 3))
    vocabulary = st.sampled_from(("keep", "answers", "short", "cite", "units", "name"))
    line = st.lists(vocabulary, min_size=words, max_size=words)
    pool = draw(st.lists(line.map(" ".join), min_size=1, max_size=12, unique=True))
    sections = tuple(
        Section(kind, "\n".join(draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))))
        for kind in CANONICAL_ORDER
    )
    largest = max(section.token_count for section in sections)
    budget = draw(st.integers(max(1, largest), largest + 6 * words))
    return PromptState(sections), pool, budget


def stepped_every_round(initial: PromptState, critic, config: OptimizerConfig) -> RunHistory:
    """``optimize`` before it stopped at the fixed point: ``step`` runs in
    every round, passed the sections the round before cut or skipped."""
    states, rounds, saturated = [initial], [], frozenset()
    for _ in range(config.iterations):
        result = step(states[-1], critic, config, saturated=saturated)
        states.append(result.state)
        rounds.append(result.updates)
        saturated = frozenset(u.gradient.target for u in result.updates if u.saturated or u.truncated)
    return RunHistory(tuple(states), tuple(rounds))


def artifacts(history: RunHistory) -> dict[str, bytes]:
    return {name: "".join(lines).encode("utf-8") for name, lines in sorted(_run_artifacts(history).items())}


class TestSaturationSkipMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(run=saturating_runs(), iterations=st.integers(1, 6), salt=st.integers(0, 1000))
    def test_same_digests_final_prompt_and_no_more_critiques(self, run, iterations, salt):
        initial, pool, budget = run
        config = OptimizerConfig(iterations, DedupMode.LEXICAL, max_section_tokens=budget)
        reference_critic, critic = CountingCritic(pool, salt), CountingCritic(pool, salt)
        expected = reference_optimize(initial, reference_critic, config)
        history = optimize(initial, critic, config)
        assert history.digests == tuple(state.digest for state in expected)
        assert render_prompt(history.final) == render_prompt(expected[-1])
        skipped = sum(update.saturated for round_ in history.updates for update in round_)
        assert critic.calls == reference_critic.calls - skipped

    @settings(max_examples=200, deadline=None)
    @given(
        run=saturating_runs(),
        iterations=st.integers(1, 10),
        salt=st.integers(0, 1000),
        dedup=st.sampled_from(DedupMode),
    )
    def test_same_history_artifacts_and_calls_as_stepping_every_round(self, run, iterations, salt, dedup):
        initial, pool, budget = run
        budget = min(budget, len(pool) * len(pool[0].split()))  # one the pool's lines can fill
        config = OptimizerConfig(iterations, dedup, max_section_tokens=budget)
        reference_critic, critic = GrowingCritic(pool, salt), GrowingCritic(pool, salt)
        expected = stepped_every_round(initial, reference_critic, config)
        with mock.patch.object(optimizer, "step", wraps=step) as stepped:
            history = optimize(initial, critic, config)
        assert history == expected
        assert artifacts(history) == artifacts(expected)
        assert critic.calls == reference_critic.calls
        # Round k, the first to saturate every section, is the last one stepped.
        fixed = [all(update.saturated for update in round_) for round_ in history.updates]
        assert stepped.call_count == (fixed.index(True) + 1 if True in fixed else iterations)


def reference_apply(section: Section, gradient: TextualGradient) -> Section:
    """Append the directives and rebuild, so every line is normalized and checked."""
    addition = "\n".join(gradient.directives)
    content = f"{section.content}\n\n{addition}" if section.content else addition
    return Section(kind=section.kind, content=content, provenance=Provenance.REFINED)


def reference_lexical_dedup(content: str) -> str:
    """The dedup loop over every line of ``content``."""
    kept: list[str] = []
    seen: set[str] = set()
    for line in content.splitlines():
        if not line.strip():
            kept.append(line)
            continue
        key = normalize_line(line)
        if not key:
            kept.append(line)
            continue
        if key in seen:
            continue
        seen.add(key)
        kept.append(line)
    while kept and not kept[0].strip():
        kept.pop(0)
    while kept and not kept[-1].strip():
        kept.pop()
    return "\n".join(kept)


def reference_lexical_pass(section: Section) -> Section:
    cleaned = reference_lexical_dedup(section.content)
    if cleaned == section.content:
        return section
    return Section(kind=section.kind, content=cleaned, provenance=section.provenance)


def reference_line_keys(content: str) -> tuple[int, tuple[str, ...]]:
    """Non-blank line count and the non-empty normalized lines of ``content``."""
    lines = [line for line in content.splitlines() if line.strip()]
    return len(lines), tuple(filter(None, map(normalize_line, lines)))


def reference_update(
    section: Section, gradient: TextualGradient, critic, config: OptimizerConfig
) -> tuple[Section, SectionUpdate]:
    """One non-saturated section update with a non-empty gradient, as the
    step did it: apply, dedup, truncate, then count lines in all three texts."""
    expanded = landed = section
    failure, truncated = None, 0
    try:
        expanded = reference_apply(section, gradient)
        if config.dedup_mode is DedupMode.LLM:
            cleaned = consolidate(critic, expanded)
        else:
            cleaned = reference_lexical_pass(expanded)
            if config.dedup_mode is DedupMode.LEXICAL_THEN_LLM:
                cleaned = consolidate(critic, cleaned)
        landed, truncated, _ = reference_truncate(cleaned, config.max_section_tokens)
        if landed.content == section.content:
            landed = section
    except (TagCollision, ConsolidationRejected, BackendError) as exc:
        landed = section
        failure = f"update failed: {exc}"
    old_lines, old_keys = reference_line_keys(section.content)
    new_lines, new_keys = reference_line_keys(expanded.content[len(section.content):])
    landed_lines, landed_keys = reference_line_keys(landed.content)
    keys = old_keys + new_keys
    return landed, SectionUpdate(
        gradient=gradient,
        failure=failure,
        duplicates_before=len(keys) - len(set(keys)),
        duplicates_after=len(landed_keys) - len(set(landed_keys)),
        removed=max(0, old_lines + new_lines - landed_lines - truncated),
        truncated=truncated,
    )


# Repeats under normalization, marker-only and blank lines, non-ASCII text,
# characters str.splitlines breaks on (\u2028, \x85, \r, which "\n" joins to
# "\r\n"), edge whitespace, and "<" lines that are not tags.
_PIECES = (
    "keep", "Keep.", "- keep", "KEEP!", "-", "1.", "short", "\xe9t\xe9", "\u6f22\u5b57",
    " ", "\t", "\u3000", "\u2028", "\x85", "\r", "a < b", "<Foo>", "<task",
)
_SECTION_LINE = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
_DIRECTIVE = (
    st.lists(st.sampled_from((*_PIECES, "<Task>", "< output  FORMAT >", "x<Context>")), min_size=1, max_size=4)
    .map("".join)
    .filter(lambda line: line.strip() and "\n" not in line)
)


@st.composite
def section_updates(draw) -> tuple[Section, TextualGradient, OptimizerConfig, str]:
    kind = draw(st.sampled_from(CANONICAL_ORDER))
    content = "\n".join(draw(st.lists(_SECTION_LINE, max_size=12)))
    section = Section(kind, content, draw(st.sampled_from(tuple(Provenance))))
    gradient = TextualGradient(kind, tuple(draw(st.lists(_DIRECTIVE, min_size=1, max_size=6))))
    mode = draw(st.sampled_from(tuple(DedupMode)))
    budget = section.token_count + draw(st.integers(1, 30))
    reply = "\n".join(draw(st.lists(st.one_of(_SECTION_LINE, st.just("<Task>")), max_size=6)))
    return section, gradient, OptimizerConfig(1, mode, max_section_tokens=budget), reply


class TestSectionUpdateMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(case=section_updates())
    def test_same_landed_section_and_record(self, case):
        section, gradient, config, reply = case
        critic = ScriptedBackend(reply)
        expected, expected_update = reference_update(section, gradient, critic, config)
        state = PromptState.from_sections([section])
        others = frozenset(CANONICAL_ORDER) - {section.kind}
        with mock.patch.object(optimizer, "request_gradient", lambda *args, **kwargs: gradient):
            result = step(state, critic, config, saturated=others)
        landed, update = result.state.section(section.kind), result.updates[CANONICAL_ORDER.index(section.kind)]
        assert landed == expected and landed.provenance is expected.provenance
        assert landed.token_count == len(expected.content.split())
        assert update == expected_update
        # A pass stored for a landed section equals a fresh scan of its content.
        assert optimizer._line_pass(landed) == optimizer._LinePass().then(landed.content)

    @settings(max_examples=200)
    @given(case=section_updates())
    def test_apply_gradient_matches_rebuild(self, case):
        section, gradient, _, _ = case
        try:
            expected = reference_apply(section, gradient)
        except TagCollision as exc:
            with pytest.raises(TagCollision) as raised:
                apply_gradient(section, gradient)
            assert str(raised.value) == str(exc)
        else:
            result = apply_gradient(section, gradient)
            assert result == expected and result.provenance is expected.provenance
            assert result.token_count == len(expected.content.split())


def unique_rule_critic() -> ScriptedBackend:
    """Each critique brings two directives no earlier line has and one that
    repeats, under normalization, the first line of the section critiqued;
    no two directives are the same string. A consolidation gets its section
    back unchanged."""
    calls = itertools.count()

    def reply(turns, params) -> str:
        request = turns[-1].content
        if "Current section content:\n" not in request:
            return request.split("Section content:\n", 1)[1].split("\n\nRemove duplicated", 1)[0]
        first = request.split("Current section content:\n", 1)[1].splitlines()[0]
        call = next(calls)
        return f"- rule {call} a stays.\n- rule {call} b stays.\n- {first.upper()}{'!' * (call + 1)}"

    return ScriptedBackend(reply)


class TestEachLineScannedOnce:
    """A lexical run normalizes each line once, when it first arrives, plus
    once more for a section the budget cut: no landed section is scanned again."""

    def run(self, budget: int, mode=DedupMode.LEXICAL, width: int = 1) -> tuple[Counter, RunHistory]:
        initial = PromptState.from_sections(
            Section(kind, "\n".join(f"{kind.value} line {i}" for i in range(4))) for kind in CANONICAL_ORDER
        )
        seen: Counter = Counter()

        def counting(line: str) -> str:
            seen[line] += 1
            return normalize_line(line)

        config = OptimizerConfig(8, mode, concurrency_width=width, max_section_tokens=budget)
        with mock.patch.object(optimizer, "normalize_line", counting):
            history = optimize(initial, unique_rule_critic(), config)
        return seen, history

    def test_each_line_normalized_once(self):
        seen, history = self.run(budget=10_000)
        assert all(update.truncated == 0 for round_ in history.updates for update in round_)
        assert seen and max(seen.values()) == 1

    def test_each_line_normalized_once_at_width_five_with_consolidation(self):
        # Five sections updated at once, each consolidated: the pass cache
        # must hold every pass one step reads until the next step reads it.
        seen, history = self.run(10_000, DedupMode.LEXICAL_THEN_LLM, width=5)
        assert all(not update.failure for round_ in history.updates for update in round_)
        assert seen and max(seen.values()) == 1

    def test_cut_sections_scanned_once_more(self):
        seen, history = self.run(budget=24)
        cut = {
            line
            for state, round_ in zip(history.states[1:], history.updates)
            for section, update in zip(state.sections, round_)
            if update.truncated
            for line in section.content.splitlines()
        }
        assert cut and max(seen.values()) == 2
        assert {line for line, count in seen.items() if count == 2} <= cut

    @pytest.mark.parametrize("runs", [2, 4])
    def test_runs_sharing_a_process_normalize_each_line_once(self, runs):
        # Each section keeps its own pass, so the steps of other runs in
        # between evict nothing a run reads next.
        states = [
            PromptState.from_sections(
                Section(kind, "\n".join(f"run {run} {kind.value} line {i}" for i in range(4)))
                for kind in CANONICAL_ORDER
            )
            for run in range(runs)
        ]
        critic, seen = unique_rule_critic(), Counter()

        def counting(line: str) -> str:
            seen[line] += 1
            return normalize_line(line)

        config = OptimizerConfig(dedup_mode=DedupMode.LEXICAL, max_section_tokens=10_000)
        with mock.patch.object(optimizer, "normalize_line", counting):
            for _ in range(8):
                states = [step(state, critic, config).state for state in states]
        assert all(state.iteration == 8 for state in states)
        assert seen and max(seen.values()) == 1


class TestPassCacheUnderThreads:
    """A section's pass is kept on the section, which fan-out workers may
    read at once: under forced thread switches every pass read must equal a
    fresh scan, and a run must give the same digests at width 1 and width 5."""

    def test_reads_match_fresh_scans(self):
        sections = [
            Section(SectionKind.CONSTRAINTS, "\n".join(f"- rule {i % (n // 2 + 1)}" for i in range(n)))
            for n in range(1, 150)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                found = list(pool.map(optimizer._line_pass, sections * 3, timeout=60))
        finally:
            sys.setswitchinterval(previous)
        assert found == [optimizer._LinePass().then(section.content) for section in sections * 3]

    @settings(max_examples=30, deadline=None)
    @given(run=saturating_runs(), salt=st.integers(0, 1000))
    def test_same_digests_at_width_one_and_five(self, run, salt):
        initial, pool, budget = run
        digests = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for width in (1, 5):
                config = OptimizerConfig(6, DedupMode.LEXICAL, concurrency_width=width, max_section_tokens=budget)
                digests.append(optimize(initial, CountingCritic(pool, salt), config).digests)
        finally:
            sys.setswitchinterval(previous)
        assert digests[0] == digests[1]
