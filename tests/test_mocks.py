"""The deterministic offline backends."""

from __future__ import annotations

from mpo import (
    ChatTurn,
    GenerationParams,
    HeadingRuleExtractor,
    MockCritic,
    MockSolver,
    SectionKind,
    parse_structured_prompt,
)
from mpo.mocks import _between_markers

PARAMS = GenerationParams()


def ask(backend, text: str) -> str:
    return backend.complete((ChatTurn("user", text),), PARAMS)


class TestMockCritic:
    def _critique_prompt(self, name: str) -> str:
        return (
            "Section name: "
            + name
            + "\n\nCurrent section content:\nstuff\n\nPropose concrete improvements"
        )

    def test_critique_reply_is_per_kind(self):
        critic = MockCritic()
        for kind in SectionKind:
            reply = ask(critic, self._critique_prompt(kind.display_name))
            assert reply.startswith("- ")
            assert reply != ask(critic, self._critique_prompt("Constraints")) or (
                kind is SectionKind.CONSTRAINTS
            )

    def test_critique_deterministic(self):
        prompt = self._critique_prompt("Task Details")
        assert ask(MockCritic(), prompt) == ask(MockCritic(), prompt)

    def test_directive_override(self):
        critic = MockCritic({SectionKind.TASK_DETAILS: ("Custom directive.",)})
        assert ask(critic, self._critique_prompt("Task Details")) == "- Custom directive."
        # Other kinds keep their defaults.
        assert "letter" in ask(critic, self._critique_prompt("Constraints"))

    def test_empty_override_means_no_change(self):
        critic = MockCritic({SectionKind.TASK_DETAILS: ()})
        assert ask(critic, self._critique_prompt("Task Details")) == ""

    def test_unknown_section_name_yields_nothing(self):
        assert ask(MockCritic(), self._critique_prompt("Mystery")) == ""

    def test_critique_naming_no_section_yields_nothing(self):
        assert ask(MockCritic(), "Current section content:\nstuff\n\nPropose concrete improvements") == ""

    def test_consolidation_without_section_content_yields_nothing(self):
        prompt = "Section name: Constraints\n\nkeep\nkeep\n\nRemove duplicated or overlapping instructions"
        assert ask(MockCritic(), prompt) == ""

    def test_consolidation_drops_exact_duplicates_only(self):
        prompt = (
            "Section name: Constraints\n\nSection content:\nkeep\nkeep\nKeep\n\n"
            "Remove duplicated or overlapping instructions"
        )
        assert ask(MockCritic(), prompt) == "keep\nKeep"

    def test_rewrite_echoes_prompt(self):
        prompt = "Critique and rewrite the prompt below\n\nPROMPT START\nline a\nline b\nPROMPT END\n"
        assert ask(MockCritic(), prompt) == "line a\nline b"

    def test_unrecognized_request_yields_nothing(self):
        assert ask(MockCritic(), "What is the capital of France?") == ""

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
        reply = ask(HeadingRuleExtractor(), f"PROMPT START\n{raw_prompt_text}\nPROMPT END")
        state = parse_structured_prompt(reply)
        assert state.section(SectionKind.TASK_DETAILS).content

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


class TestBetweenMarkers:
    def test_extracts_between_markers(self):
        assert _between_markers("head\nPROMPT START\nbody\nPROMPT END\ntail") == "body"

    def test_without_markers_returns_whole_text(self):
        assert _between_markers("just text") == "just text"

    def test_outermost_markers_win(self):
        text = "PROMPT START\na\nPROMPT START\nb\nPROMPT END\nc\nPROMPT END"
        assert _between_markers(text) == "a\nPROMPT START\nb\nPROMPT END\nc"
