"""The deterministic offline backends."""

from __future__ import annotations

import pytest

from mpo import (
    ChatTurn,
    GenerationParams,
    HeadingRuleExtractor,
    MockCritic,
    MockSolver,
    SectionKind,
    parse_structured_prompt,
)
from mpo.backends import call_for
from mpo.templating import PromptTemplate, default_template

PARAMS = GenerationParams()


def ask(backend, text: str, purpose: str | None = None) -> str:
    return call_for(purpose, backend.complete, (ChatTurn("user", text),), PARAMS)


class TestMockCritic:
    # The built-in gradient template, filled: a request that names its section in the text.
    CRITIQUE = default_template("gradient").fill(SECTION_KIND="Constraints", SECTION_CONTENT="stuff", CONTEXT="")

    def test_critique_reply_is_per_kind(self):
        critic = MockCritic()
        for kind in SectionKind:
            reply = ask(critic, "stuff", f"critique:{kind.value}@0")
            assert reply.startswith("- ")
            assert reply != ask(critic, "stuff", "critique:constraints@0") or kind is SectionKind.CONSTRAINTS

    def test_critique_reply_reads_the_purpose_not_the_text(self):
        critic = MockCritic()
        assert ask(critic, self.CRITIQUE, "critique:task_details@3") == ask(critic, "", "critique:task_details@0")
        assert ask(critic, self.CRITIQUE) == ""

    def test_critique_deterministic(self):
        assert ask(MockCritic(), "stuff", "critique:task_details@0") == ask(MockCritic(), "stuff", "critique:task_details@0")

    def test_directive_override(self):
        critic = MockCritic({SectionKind.TASK_DETAILS: ("Custom directive.",)})
        assert ask(critic, "stuff", "critique:task_details@0") == "- Custom directive."
        # Other kinds keep their defaults.
        assert "letter" in ask(critic, "stuff", "critique:constraints@0")

    def test_empty_override_means_no_change(self):
        critic = MockCritic({SectionKind.TASK_DETAILS: ()})
        assert ask(critic, "stuff", "critique:task_details@0") == ""

    @pytest.mark.parametrize("purpose", ["critique:mystery@0", "critique:Constraints@0", "critique@0", "consolidate:mystery@0"])
    def test_unknown_or_missing_kind_yields_nothing(self, purpose):
        assert ask(MockCritic(), self.CRITIQUE, purpose) == ""

    def test_consolidation_without_section_content_yields_nothing(self):
        prompt = "Section name: Constraints\n\nkeep\nkeep\n\nRemove duplicated or overlapping instructions"
        assert ask(MockCritic(), prompt, "consolidate:constraints@0") == ""

    def test_consolidation_drops_exact_duplicates_only(self):
        prompt = default_template("consolidate").fill(SECTION_KIND="Constraints", SECTION_CONTENT="keep\nkeep\nKeep")
        assert ask(MockCritic(), prompt, "consolidate:constraints@0") == "keep\nKeep"
        assert ask(MockCritic(), prompt) == ""

    def test_rewrite_echoes_prompt(self):
        prompt = default_template("rewrite").fill(PROMPT="line a\nline b\n")
        assert ask(MockCritic(), prompt, "rewrite@0") == "line a\nline b\n"
        assert ask(MockCritic(), prompt) == ""

    def test_requests_are_read_through_the_given_templates(self):
        templates = {"consolidate": PromptTemplate("Tidy {SECTION_KIND}:\n{SECTION_CONTENT}\n"),
                     "rewrite": PromptTemplate("{PROMPT}")}
        critic = MockCritic(templates=templates)
        tidy = templates["consolidate"].fill(SECTION_KIND="Constraints", SECTION_CONTENT="keep\nkeep")
        assert ask(critic, tidy, "consolidate:constraints@0") == "keep"
        assert ask(critic, "any text", "rewrite@0") == "any text"
        builtin = default_template("consolidate").fill(SECTION_KIND="Constraints", SECTION_CONTENT="keep")
        assert ask(critic, builtin, "consolidate:constraints@0") == ""

    @pytest.mark.parametrize("purpose", [None, "solve:q1", "decompose", "tidy:constraints@0"])
    def test_unrecognized_call_yields_nothing(self, purpose):
        assert ask(MockCritic(), "What is the capital of France?", purpose) == ""

    def test_identity(self):
        assert MockCritic().identity == "mock:fixed-rules"


class TestMockSolver:
    QUESTION = "What color is the sky?\n\nA. green\nB. blue\nC. red\n\nAnswer with the letter."

    def test_reply_shape(self):
        reply = ask(MockSolver(), self.QUESTION)
        assert reply in {"Answer: A", "Answer: B", "Answer: C"}

    def test_deterministic(self):
        assert ask(MockSolver(), self.QUESTION) == ask(MockSolver(), self.QUESTION)

    def test_different_prompts_can_differ(self):
        solver = MockSolver()
        replies = {
            ask(solver, f"Question {i}?\n\nA. yes\nB. no\nC. maybe\nD. unclear")
            for i in range(12)
        }
        assert len(replies) > 1

    def test_no_choices_falls_back(self):
        assert ask(MockSolver(), "no options offered") == "Answer: A"


class TestHeadingRuleExtractor:
    def test_output_always_parses(self, raw_prompt_text):
        reply = ask(HeadingRuleExtractor(), default_template("decompose").fill(PROMPT=raw_prompt_text))
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.TASK_DETAILS).content

    def test_reads_the_prompt_through_the_given_template(self):
        template = PromptTemplate("Split this:\n{PROMPT}\nTags only.\n")
        request = template.fill(PROMPT="Task: do the thing")
        extractor = HeadingRuleExtractor(templates={"decompose": template})
        assert ask(extractor, request) == ask(HeadingRuleExtractor(), "Task: do the thing")
        assert "Tags only." in ask(HeadingRuleExtractor(), request)

    def test_routes_by_heading_keyword(self):
        source = (
            "Role: be a historian\n"
            "Background info: the user studies maps\n"
            "Tasks: summarize the document\n"
            "Rules to follow:\n"
            "- no speculation\n"
            "Output format:\n"
            "- bullet points\n"
        )
        reply = ask(HeadingRuleExtractor(), source)
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.SYSTEM_ROLE).content == "be a historian"
        assert state.section(SectionKind.RELEVANT_CONTEXT).content == "the user studies maps"
        assert state.section(SectionKind.TASK_DETAILS).content == "summarize the document"
        assert state.section(SectionKind.CONSTRAINTS).content == "- no speculation"
        assert state.section(SectionKind.OUTPUT_FORMAT).content == "- bullet points"

    def test_leading_text_lands_in_context(self):
        reply = ask(HeadingRuleExtractor(), "Some scene setting.\n\nTask: do the thing")
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.RELEVANT_CONTEXT).content == "Some scene setting."

    def test_list_lines_never_match_as_headings(self):
        source = "Tasks:\n- task one: with a colon inside\n- task two"
        reply = ask(HeadingRuleExtractor(), source)
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.TASK_DETAILS).content == (
            "- task one: with a colon inside\n- task two"
        )

    def test_long_prefix_is_content_not_heading(self):
        prefix = " ".join(["word"] * 11)
        source = f"Task: start here\n{prefix}: not a heading"
        reply = ask(HeadingRuleExtractor(), source)
        state = parse_structured_prompt(reply)
        assert "not a heading" in state.section(SectionKind.TASK_DETAILS).content

    def test_label_naming_no_topic_is_content_of_the_current_section(self):
        source = "Task: summarize the document\nNote: keep it short\n"
        state = parse_structured_prompt(ask(HeadingRuleExtractor(), source))
        assert state.section(SectionKind.TASK_DETAILS).content == "summarize the document\nNote: keep it short"
        assert state.section(SectionKind.RELEVANT_CONTEXT).is_empty

    def test_sections_merge_contiguously(self):
        source = (
            "Rules: first rule\n"
            "Task: something\n"
            "More rules: second rule\n"
        )
        reply = ask(HeadingRuleExtractor(), source)
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.CONSTRAINTS).content == "first rule\nsecond rule"

