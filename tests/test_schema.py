"""Schema model: parsing, rendering, diffing, decomposition."""

from __future__ import annotations

import logging
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies
from mpo import (
    CANONICAL_ORDER,
    BackendError,
    DuplicateSectionTag,
    EmptyInput,
    ExtractorFailure,
    MalformedTag,
    PromptState,
    Provenance,
    SchemaError,
    Section,
    SectionKind,
    TagCollision,
    UntaggedLeadingContent,
    diff_states,
    parse_structured_prompt,
    render_prompt,
    section_context,
    token_count,
)
from mpo.decompose import decompose_unstructured, vocabulary_violations
from mpo.mocks import HeadingRuleExtractor
from mpo.schema import _TAG_ALIASES, TAG_STRING_RE, strip_code_fences, strip_tag_strings
from solvers import ScriptedBackend


class TestSection:
    def test_content_is_stripped(self):
        assert Section(SectionKind.TASK_DETAILS, "  hello  \n").content == "hello"

    def test_line_boundaries_normalized(self):
        section = Section(SectionKind.TASK_DETAILS, "a\r\nb\rc d")
        assert section.content == "a\nb\nc\nd"

    def test_rejects_embedded_tag_string(self):
        with pytest.raises(TagCollision):
            Section(SectionKind.TASK_DETAILS, "before <Constraints> after")

    def test_rejects_tag_string_case_insensitively(self):
        with pytest.raises(TagCollision):
            Section(SectionKind.TASK_DETAILS, "<output FORMAT>")

    def test_rejects_line_that_parses_as_tag(self):
        # No exact tag substring, but the parser would still read the line
        # as opening a section.
        with pytest.raises(TagCollision):
            Section(SectionKind.CONSTRAINTS, "fine\n<  Task  >\nfine")

    def test_plain_angle_brackets_allowed(self):
        section = Section(SectionKind.CONSTRAINTS, "use x < y and <placeholder>")
        assert "<placeholder>" in section.content

    def test_token_count(self):
        assert Section(SectionKind.TASK_DETAILS, "one two  three\nfour").token_count == 4
        assert Section(SectionKind.TASK_DETAILS, "").token_count == 0


class TestPromptState:
    def test_requires_canonical_order(self, build_state):
        state = build_state(task_details="x")
        with pytest.raises(SchemaError):
            PromptState(tuple(reversed(state.sections)))

    def test_requires_all_five_sections(self):
        with pytest.raises(SchemaError):
            PromptState((Section(SectionKind.TASK_DETAILS, "x"),))

    def test_from_sections_fills_missing_kinds(self):
        state = PromptState.from_sections([Section(SectionKind.CONSTRAINTS, "c")])
        assert state.section(SectionKind.CONSTRAINTS).content == "c"
        assert all(
            state.section(kind).is_empty
            for kind in CANONICAL_ORDER
            if kind is not SectionKind.CONSTRAINTS
        )

    def test_from_sections_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            PromptState.from_sections(
                [Section(SectionKind.CONSTRAINTS, "a"), Section(SectionKind.CONSTRAINTS, "b")]
            )

    def test_negative_iteration_rejected(self, build_state):
        state = build_state()
        with pytest.raises(SchemaError):
            PromptState(state.sections, iteration=-1)

    def test_digest_tracks_content_not_provenance(self, build_state):
        plain = build_state(task_details="same")
        refined = PromptState.from_sections(
            [Section(SectionKind.TASK_DETAILS, "same", Provenance.REFINED)]
        )
        assert plain.digest == refined.digest
        assert plain.digest != build_state(task_details="changed").digest
        assert [s.content for s in plain.sections] == [s.content for s in refined.sections]

    def test_total_tokens(self, build_state):
        state = build_state(system_role="a b", constraints="c d e")
        assert state.total_tokens == 5


class TestParse:
    def test_aliases_are_the_tags_and_display_names(self):
        # In this order, so TAG_STRING_RE tries them as it always has.
        assert list(_TAG_ALIASES.items()) == [
            ("system role", SectionKind.SYSTEM_ROLE),
            ("context", SectionKind.RELEVANT_CONTEXT),
            ("relevant context", SectionKind.RELEVANT_CONTEXT),
            ("task", SectionKind.TASK_DETAILS),
            ("task details", SectionKind.TASK_DETAILS),
            ("constraints", SectionKind.CONSTRAINTS),
            ("output format", SectionKind.OUTPUT_FORMAT),
        ]
        assert TAG_STRING_RE.pattern == r"<system\ role>|<context>|<relevant\ context>|<task>|<task\ details>|<constraints>|<output\ format>"

    def test_readme_names_every_alias(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (sentence,) = re.findall(r"^(.*) are accepted as aliases on input;", readme, flags=re.M)
        named = {name.lower() for name in re.findall(r"`<([^<>`]+)>`", sentence)}
        assert named == set(_TAG_ALIASES) - {kind.tag[1:-1].lower() for kind in SectionKind}

    def test_fixture_sections(self, tagged_prompt):
        contents = {section.kind: section.content for section in tagged_prompt.sections}
        assert contents[SectionKind.SYSTEM_ROLE] == (
            "You are a helpful, creative, and smart assistant."
        )
        assert contents[SectionKind.RELEVANT_CONTEXT].startswith("You will receive")
        assert len(contents[SectionKind.TASK_DETAILS].splitlines()) == 6
        assert len(contents[SectionKind.CONSTRAINTS].splitlines()) == 8
        assert len(contents[SectionKind.OUTPUT_FORMAT].splitlines()) == 6
        assert tagged_prompt.iteration == 0

    def test_long_form_aliases_accepted(self):
        state = parse_structured_prompt(
            "<Relevant Context>\nctx\n\n<Task Details>\ntask\n"
        )
        assert state.section(SectionKind.RELEVANT_CONTEXT).content == "ctx"
        assert state.section(SectionKind.TASK_DETAILS).content == "task"

    def test_tags_match_case_insensitively(self):
        state = parse_structured_prompt("<task>\ndo it\n\n<OUTPUT FORMAT>\njson\n")
        assert state.section(SectionKind.TASK_DETAILS).content == "do it"
        assert state.section(SectionKind.OUTPUT_FORMAT).content == "json"

    def test_missing_sections_come_back_empty(self):
        state = parse_structured_prompt("<Task>\nonly this\n")
        assert state.section(SectionKind.SYSTEM_ROLE).is_empty
        assert state.section(SectionKind.TASK_DETAILS).content == "only this"

    def test_duplicate_tag_rejected(self):
        with pytest.raises(DuplicateSectionTag):
            parse_structured_prompt("<Task>\na\n\n<Task>\nb\n")

    def test_alias_duplicate_of_same_section_rejected(self):
        with pytest.raises(DuplicateSectionTag):
            parse_structured_prompt("<Context>\na\n\n<Relevant Context>\nb\n")

    def test_leading_text_rejected(self):
        with pytest.raises(UntaggedLeadingContent):
            parse_structured_prompt("hello\n<Task>\nx\n")

    def test_leading_blank_lines_allowed(self):
        state = parse_structured_prompt("\n\n<Task>\nx\n")
        assert state.section(SectionKind.TASK_DETAILS).content == "x"

    def test_leading_unknown_tag_rejected(self):
        with pytest.raises(MalformedTag):
            parse_structured_prompt("<Preamble>\n<Task>\nx\n")

    def test_leading_unclosed_tag_rejected(self):
        with pytest.raises(MalformedTag):
            parse_structured_prompt("<Task\nx\n")

    def test_unknown_bracket_line_inside_body_is_content(self):
        state = parse_structured_prompt("<Task>\n<thing>\nx\n")
        assert state.section(SectionKind.TASK_DETAILS).content == "<thing>\nx"

    def test_empty_input_gives_empty_state(self):
        state = parse_structured_prompt("")
        assert all(section.is_empty for section in state.sections)


class TestRender:
    def test_canonical_tags_and_order(self, build_state):
        text = render_prompt(build_state(task_details="t"))
        assert text.index("<System Role>") < text.index("<Context>") < text.index("<Task>")
        assert text.index("<Task>") < text.index("<Constraints>") < text.index("<Output Format>")
        assert text.endswith("\n")

    def test_empty_section_renders_bare_tag(self, build_state):
        text = render_prompt(build_state())
        assert "<System Role>\n\n<Context>" in text

    def test_aliases_render_canonically(self):
        state = parse_structured_prompt("<Relevant Context>\nctx\n")
        assert "<Context>\nctx" in render_prompt(state)
        assert "<Relevant Context>" not in render_prompt(state)

    def test_fixture_file_is_byte_stable(self, tagged_prompt_text):
        state = parse_structured_prompt(tagged_prompt_text)
        assert render_prompt(state) == tagged_prompt_text

    @settings(max_examples=100)
    @given(state=strategies.prompt_states())
    def test_round_trip_identity(self, state):
        parsed = parse_structured_prompt(render_prompt(state))
        assert parsed.sections == state.sections

    @settings(max_examples=50)
    @given(state=strategies.prompt_states())
    def test_render_is_deterministic(self, state):
        assert render_prompt(state) == render_prompt(state)


class TestSectionContext:
    def test_excludes_target_section(self, tagged_prompt):
        context = section_context(tagged_prompt, SectionKind.CONSTRAINTS)
        assert "<Constraints>" not in context
        assert "- Do not summarize across questions." not in context
        for kind in CANONICAL_ORDER:
            if kind is not SectionKind.CONSTRAINTS:
                assert kind.tag in context

    def test_context_keeps_canonical_order(self, build_state):
        context = section_context(build_state(), SectionKind.RELEVANT_CONTEXT)
        assert context.index("<System Role>") < context.index("<Task>")


def test_token_count_splits_on_whitespace():
    assert token_count("a  b\nc\td") == 4
    assert token_count("") == 0


def test_strip_code_fences():
    assert strip_code_fences("```\n<Task>\nx\n```") == "<Task>\nx"
    assert strip_code_fences("```text\nbody\n```") == "body"
    assert strip_code_fences("no fences") == "no fences"


def test_strip_tag_strings():
    assert strip_tag_strings("a <Task> b <Output Format> c") == "a Task b Output Format c"


class TestDiff:
    @staticmethod
    def _section(report, kind):
        return report.sections[CANONICAL_ORDER.index(kind)]

    def test_identical_states_unchanged(self, tagged_prompt):
        report = diff_states(tagged_prompt, tagged_prompt)
        assert not report.changed
        assert all(not section.changed for section in report.sections)

    def test_single_line_edit(self, build_state):
        a = build_state(constraints="keep\nold line")
        b = build_state(constraints="keep\nnew line")
        section = self._section(diff_states(a, b), SectionKind.CONSTRAINTS)
        assert section.lines == (("unchanged", "keep"), ("removed", "old line"), ("added", "new line"))
        assert section.token_delta == 0

    def test_token_delta(self, build_state):
        a = build_state(task_details="one")
        b = build_state(task_details="one two three")
        assert self._section(diff_states(a, b), SectionKind.TASK_DETAILS).token_delta == 2

    def test_fixture_pair_differs(self, tagged_prompt, refined_prompt):
        report = diff_states(tagged_prompt, refined_prompt)
        assert report.changed
        assert self._section(report, SectionKind.SYSTEM_ROLE).changed
        assert self._section(report, SectionKind.TASK_DETAILS).changed

    def test_to_text_marks_lines(self, build_state):
        a = build_state(task_details="old")
        b = build_state(task_details="new")
        text = diff_states(a, b).to_text()
        assert "- old" in text
        assert "+ new" in text
        assert "Task Details (changed" in text

    def test_to_dict_shape(self, build_state):
        a = build_state()
        b = build_state(constraints="x")
        data = diff_states(a, b).to_dict()
        assert data["changed"] is True
        assert data["sections"]["constraints"]["lines"] == [{"op": "added", "line": "x"}]


class TestVocabularyCheck:
    def test_clean_when_words_come_from_source(self, build_state):
        state = build_state(task_details="answer the question")
        assert vocabulary_violations(state, "Please answer the question now.") == {}

    def test_flags_new_words(self, build_state):
        state = build_state(task_details="answer concisely")
        violations = vocabulary_violations(state, "Please answer the question.")
        assert violations == {SectionKind.TASK_DETAILS: ("concisely",)}


class _ExplodingBackend(ScriptedBackend):
    def __init__(self):
        def explode(turns, params):
            raise AssertionError("extractor must not be called for tagged input")

        super().__init__(explode)


class TestDecompose:
    def test_tagged_input_bypasses_extractor(self, tagged_prompt_text, tagged_prompt):
        state = decompose_unstructured(tagged_prompt_text, _ExplodingBackend())
        assert state.sections == tagged_prompt.sections

    def test_extractor_is_asked_with_the_decompose_params(self):
        from mpo.backends import DECOMPOSE_PARAMS

        asked = []
        decompose_unstructured("solve the problem", ScriptedBackend(lambda turns, params: asked.append(params) or "<Task>\nx\n"))
        (params,) = asked
        assert params is DECOMPOSE_PARAMS
        assert DECOMPOSE_PARAMS.to_dict() == {"temperature": 0.0, "max_output_tokens": 1024, "seed": None}

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            decompose_unstructured("  \n ", HeadingRuleExtractor())

    def test_tagged_but_malformed_input_warns_and_goes_to_the_extractor(self, caplog):
        reply = "<Task>\nsolve the problem\n"
        with caplog.at_level(logging.WARNING, logger="mpo.decompose"):
            state = decompose_unstructured("<Task>\nsolve the problem\n<Task>\n", ScriptedBackend(reply))
        assert state.section(SectionKind.TASK_DETAILS).content == "solve the problem"
        (message,) = [m for m in caplog.messages if "well-formed" in m]
        assert message.startswith("input contains section tags but is not a well-formed structured prompt (")

    def test_heading_fixture_matches_hand_structured_version(
        self, raw_prompt_text, tagged_prompt
    ):
        state = decompose_unstructured(raw_prompt_text, HeadingRuleExtractor())
        # The hand-structured fixture invents a system role line; a
        # conservative extractor cannot, so that section stays empty and
        # everything else must agree exactly.
        assert state.section(SectionKind.SYSTEM_ROLE).is_empty
        for kind in CANONICAL_ORDER:
            if kind is not SectionKind.SYSTEM_ROLE:
                assert state.section(kind).content == tagged_prompt.section(kind).content

    def test_verbatim_sections_marked_original(self, raw_prompt_text):
        state = decompose_unstructured(raw_prompt_text, HeadingRuleExtractor())
        for section in state.sections:
            assert section.provenance is Provenance.ORIGINAL

    def test_mock_decomposition_introduces_no_new_words(self, raw_prompt_text):
        state = decompose_unstructured(raw_prompt_text, HeadingRuleExtractor())
        assert vocabulary_violations(state, raw_prompt_text) == {}

    def test_paraphrased_section_marked_inferred(self):
        reply = "<System Role>\nYou are an expert explainer.\n\n<Task>\nsolve the problem\n"
        state = decompose_unstructured(
            "solve the problem", ScriptedBackend(reply)
        )
        assert state.section(SectionKind.SYSTEM_ROLE).provenance is Provenance.INFERRED
        assert state.section(SectionKind.TASK_DETAILS).provenance is Provenance.ORIGINAL

    def test_new_words_logged_not_raised(self, caplog):
        reply = "<Task>\ncompose a sonnet\n"
        with caplog.at_level(logging.WARNING, logger="mpo.schema"):
            state = decompose_unstructured("write a poem", ScriptedBackend(reply))
        assert state.section(SectionKind.TASK_DETAILS).content == "compose a sonnet"
        assert any("introduced words" in message for message in caplog.messages)

    def test_backend_failure_propagates(self):
        def fail(turns, params):
            raise BackendError("boom")

        with pytest.raises(BackendError, match="boom"):
            decompose_unstructured("some text", ScriptedBackend(fail))

    def test_unparseable_reply_wrapped(self):
        with pytest.raises(ExtractorFailure):
            decompose_unstructured("some text", ScriptedBackend("still unstructured"))

    def test_fenced_reply_accepted(self):
        reply = "```\n<Task>\nsome text\n```"
        state = decompose_unstructured("some text", ScriptedBackend(reply))
        assert state.section(SectionKind.TASK_DETAILS).content == "some text"
