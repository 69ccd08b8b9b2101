"""Critic plumbing: directive parsing, gradient requests, consolidation."""

from __future__ import annotations

import pytest

from mpo import (
    ConsolidationRejected,
    Provenance,
    ScriptedBackend,
    Section,
    SectionKind,
    TextualGradient,
    consolidate,
    parse_directives,
    request_gradient,
)
from mpo.backends import CONSOLIDATION_PARAMS, GRADIENT_PARAMS
from mpo.templating import PromptTemplate


class TestParseDirectives:
    def test_plain_lines(self):
        assert parse_directives("Do this.\nDo that.") == ("Do this.", "Do that.")

    def test_list_markers_stripped(self):
        text = "- first\n* second\n1. third\n2) fourth"
        assert parse_directives(text) == ("first", "second", "third", "fourth")

    def test_blank_lines_dropped(self):
        assert parse_directives("\n\none\n\n\ntwo\n") == ("one", "two")

    def test_code_fences_stripped(self):
        assert parse_directives("```\n- inside\n```") == ("inside",)

    def test_empty_reply(self):
        assert parse_directives("") == ()
        assert parse_directives("   \n\n  ") == ()

    def test_marker_only_line_dropped(self):
        assert parse_directives("- \n- real") == ("real",)


class TestTextualGradient:
    def test_empty_constructor(self):
        gradient = TextualGradient.empty(SectionKind.CONSTRAINTS, "critic:m")
        assert gradient.is_empty
        assert gradient.target is SectionKind.CONSTRAINTS
        assert gradient.directives == ()
        assert gradient.critic_identity == "critic:m"

    def test_rejects_blank_directive(self):
        with pytest.raises(ValueError):
            TextualGradient(SectionKind.CONSTRAINTS, ("",), "c:m")

    def test_rejects_multiline_directive(self):
        with pytest.raises(ValueError):
            TextualGradient(SectionKind.CONSTRAINTS, ("a\nb",), "c:m")


class TestRequestGradient:
    def test_fills_template_and_parses_reply(self):
        captured: dict = {}

        def reply(turns, params):
            captured["prompt"] = turns[-1].content
            captured["params"] = params
            return "- Tighten the wording.\n- Add an example."

        section = Section(SectionKind.TASK_DETAILS, "Answer the question.")
        gradient = request_gradient(
            ScriptedBackend(reply, name="c", model="m"),
            section,
            "full prompt here",
        )
        assert gradient.directives == ("Tighten the wording.", "Add an example.")
        assert gradient.target is SectionKind.TASK_DETAILS
        assert gradient.critic_identity == "c:m"
        assert captured["params"] == GRADIENT_PARAMS
        assert "Task Details" in captured["prompt"]
        assert "Answer the question." in captured["prompt"]
        assert "full prompt here" in captured["prompt"]

    def test_empty_reply_is_empty_gradient(self):
        section = Section(SectionKind.SYSTEM_ROLE, "You are an expert.")
        gradient = request_gradient(ScriptedBackend(""), section, "ctx")
        assert gradient.is_empty

    def test_custom_template(self):
        captured: dict = {}

        def reply(turns, params):
            captured["prompt"] = turns[-1].content
            return "one line"

        template = PromptTemplate("{SECTION_KIND}|{SECTION_CONTENT}|{CONTEXT}")
        section = Section(SectionKind.OUTPUT_FORMAT, "Reply tersely.")
        request_gradient(ScriptedBackend(reply), section, "ctx", template=template)
        assert captured["prompt"] == "Output Format|Reply tersely.|ctx"


class TestConsolidate:
    def test_returns_refined_section(self):
        captured: dict = {}

        def reply(turns, params):
            captured["prompt"] = turns[-1].content
            captured["params"] = params
            return "clean content"

        section = Section(
            SectionKind.CONSTRAINTS, "rule\nrule", provenance=Provenance.ORIGINAL
        )
        result = consolidate(ScriptedBackend(reply), section)
        assert result.content == "clean content"
        assert result.kind is SectionKind.CONSTRAINTS
        assert result.provenance is Provenance.REFINED
        assert captured["params"] == CONSOLIDATION_PARAMS
        assert "rule\nrule" in captured["prompt"]

    def test_fenced_reply_unwrapped(self):
        section = Section(SectionKind.CONSTRAINTS, "a\nb")
        result = consolidate(ScriptedBackend("```\njust a\n```"), section)
        assert result.content == "just a"

    def test_reply_with_tag_string_rejected(self):
        section = Section(SectionKind.CONSTRAINTS, "a")
        with pytest.raises(ConsolidationRejected):
            consolidate(ScriptedBackend("keep <Constraints> intact"), section)

    def test_empty_reply_rejected(self):
        section = Section(SectionKind.CONSTRAINTS, "a")
        with pytest.raises(ConsolidationRejected):
            consolidate(ScriptedBackend("   "), section)
