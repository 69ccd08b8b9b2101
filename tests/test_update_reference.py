"""The section-update fast paths against the loops they replaced.

``_truncate_to_token_budget`` keeps a running token total instead of
re-joining and re-splitting the section for every popped line, and
``Section`` scans lines for tags only when its content holds a "<". The
reference functions below are the earlier loops, kept as they were apart
from returning what the truncation warning logged, and each property
requires the same result from both.

``optimize`` skips sections saturated at the token budget; the reference
round loop critiques every section in every round, as before.

``PromptState.digest`` is computed once per state, ``history.jsonl`` encodes
each distinct section once and splices it into the state's line, and replay
looks requests up by a framed hash of their fields instead of their
``request_digest``; each is checked against the code it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pickle
import random
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as local
from mpo import (
    CANONICAL_ORDER,
    ChatTurn,
    DedupMode,
    GenerationParams,
    OptimizerConfig,
    PromptState,
    Provenance,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    ScriptedBackend,
    Section,
    SectionKind,
    TagCollision,
    apply_gradient,
    optimize,
    render_prompt,
    request_digest,
    request_gradient,
    section_context,
    token_count,
)
from mpo.backends import Transcript, TranscriptEntry, _request_key
from mpo.cli import _history_lines
from mpo.optimizer import _lexical_pass, _truncate_to_token_budget
from mpo.schema import TAG_STRING_RE, _parse_tag_line


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
        assert "token_count" in vars(section) and "token_count" not in vars(fresh)
        assert section == fresh
        assert hash(section) == hash(fresh)
        assert repr(section) == repr(fresh)
        assert pickle.dumps(section) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(section))
        assert restored == fresh
        assert restored.token_count == section.token_count

    def test_fields_unchanged(self):
        fields = [(f.name, f.type) for f in dataclasses.fields(Section)]
        assert fields == [("kind", "SectionKind"), ("content", "str"), ("provenance", "Provenance")]


def reference_digest(state: PromptState) -> str:
    """The digest as every read computed it: render, then SHA-256."""
    return hashlib.sha256(render_prompt(state).encode("utf-8")).hexdigest()


class TestCachedDigest:
    @settings(max_examples=100)
    @given(state=local.prompt_states())
    def test_cached_state_behaves_like_fresh(self, state):
        fresh = PromptState(state.sections, state.iteration, state.parent_digest)
        assert state.digest == reference_digest(state)
        assert "_digest" in vars(state) and "_digest" not in vars(fresh)
        assert state == fresh
        assert hash(state) == hash(fresh)
        assert repr(state) == repr(fresh)
        assert pickle.dumps(state) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(state))
        assert "_digest" not in vars(restored)
        assert restored == fresh
        assert restored.digest == state.digest

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
        expected = [json.dumps(reference_state_line(s), ensure_ascii=False) + "\n" for s in states]
        assert list(_history_lines(states)) == expected

    def test_shared_and_equal_sections(self):
        # Equal content in distinct objects, and one object in every state.
        shared = Section(SectionKind.CONSTRAINTS, 'Say "yes" \\ \u6f22\u2028next')
        states = tuple(
            PromptState.from_sections(
                [shared, Section(SectionKind.TASK_DETAILS, "Same text.")], index, parent
            )
            for index, parent in enumerate((None, "\x1c\u2028", "d"))
        )
        expected = [json.dumps(reference_state_line(s), ensure_ascii=False) + "\n" for s in states]
        assert list(_history_lines(states)) == expected


def live_key(turns, params: GenerationParams) -> bytes:
    return _request_key(((turn.role, turn.content) for turn in turns), params.to_dict())


# Few distinct values, so equal requests come up often; ":" and digits probe
# the length framing.
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
    @given(a=_REQUESTS, b=_REQUESTS)
    def test_keys_equal_exactly_when_digests_are(self, a, b):
        assert (live_key(*a) == live_key(*b)) == (request_digest(*a) == request_digest(*b))

    @settings(max_examples=300)
    @given(recorded=_REQUESTS, live=_REQUESTS)
    def test_served_exactly_when_digests_match(self, recorded, live):
        store = Transcript()
        RecordingBackend(ScriptedBackend("reply"), store).complete(*recorded)
        # Through JSON, as a transcript is loaded from disk.
        loaded = Transcript(
            TranscriptEntry.from_dict(json.loads(json.dumps(entry.to_dict(), ensure_ascii=False)))
            for entry in store
        )
        try:
            served = ReplayBackend(loaded).complete(*live) == "reply"
        except ReplayMiss:
            served = False
        assert served == (request_digest(*recorded) == request_digest(*live))


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
                cleaned = _lexical_pass(apply_gradient(section, gradient))
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
