"""Refinement loop: gradient application, dedup, step/run invariants."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as local
from mpo import (
    BackendError,
    DedupMode,
    MockCritic,
    OptimizationAborted,
    OptimizerConfig,
    PromptState,
    Provenance,
    ReplayBackend,
    ReplayMiss,
    RunHistory,
    Section,
    SectionKind,
    TagCollision,
    TargetMismatch,
    TextualGradient,
    apply_gradient,
    baseline_global_step,
    default_template,
    growth_metrics,
    lexical_dedup,
    normalize_line,
    optimize,
    step,
)
from mpo.schema import CANONICAL_ORDER
from solvers import Recorder, ScriptedBackend, called_for


def _repeats(text: str) -> int:
    """Non-blank lines whose normalized form an earlier line already had."""
    keys = [key for line in text.splitlines() if line.strip() and (key := normalize_line(line))]
    return len(keys) - len(set(keys))


def _failures(updates) -> list[tuple[SectionKind, str]]:
    """The failed sections of one round's updates, in section order, with why."""
    return [(update.gradient.target, update.failure) for update in updates if update.failure]


def _gradient(kind: SectionKind, *directives: str) -> TextualGradient:
    return TextualGradient(kind, directives, critic_identity="t:t")


def section_critic(replies: dict[SectionKind, str]) -> ScriptedBackend:
    """Critic whose gradient reply depends on which section is critiqued.

    Dispatches on the call's purpose; any call but a critique fails the test.
    """

    def reply(turns, params):
        task, kind = called_for()
        if task == "critique":
            return replies.get(kind, "")
        raise AssertionError(f"unexpected request: {turns[-1].content[:80]}")

    return ScriptedBackend(reply, name="sectioned", model="script")


class TestApplyGradient:
    def test_appends_directives(self):
        section = Section(SectionKind.CONSTRAINTS, "Existing rule.")
        result = apply_gradient(
            section, _gradient(SectionKind.CONSTRAINTS, "New rule.", "Another.")
        )
        assert result.content == "Existing rule.\n\nNew rule.\nAnother."
        assert result.provenance is Provenance.REFINED

    def test_empty_section_gets_directives_alone(self):
        section = Section(SectionKind.CONSTRAINTS, "")
        result = apply_gradient(section, _gradient(SectionKind.CONSTRAINTS, "Rule."))
        assert result.content == "Rule."

    def test_empty_gradient_returns_same_object(self):
        section = Section(SectionKind.CONSTRAINTS, "Rule.")
        assert apply_gradient(section, TextualGradient.empty(SectionKind.CONSTRAINTS)) is section

    def test_target_mismatch(self):
        section = Section(SectionKind.CONSTRAINTS, "Rule.")
        with pytest.raises(TargetMismatch):
            apply_gradient(section, _gradient(SectionKind.TASK_DETAILS, "x"))

    def test_tag_bearing_directive_raises_collision(self):
        section = Section(SectionKind.CONSTRAINTS, "Rule.")
        gradient = _gradient(SectionKind.CONSTRAINTS, "Mention <Constraints> here.")
        with pytest.raises(TagCollision):
            apply_gradient(section, gradient)


class TestNormalizeLine:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("  Keep it short.  ", "keep it short"),
            ("- Keep it short", "keep it short"),
            ("* Keep   it \t short!", "keep it short"),
            ("3. Keep it short;", "keep it short"),
            ("12) KEEP IT SHORT?", "keep it short"),
            ("-", ""),
            ("", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_line(raw) == expected

    def test_only_first_marker_stripped(self):
        assert normalize_line("- - doubled") == "- doubled"


class TestLexicalDedup:
    def test_drops_marker_blind_duplicates(self):
        text = "Be concise.\n- be concise\n* BE CONCISE!\nBe clear."
        assert lexical_dedup(text) == "Be concise.\nBe clear."

    def test_first_occurrence_wins(self):
        assert lexical_dedup("- styled\nstyled") == "- styled"

    def test_internal_blanks_kept_edges_trimmed(self):
        assert lexical_dedup("\n\na\n\nb\n\n") == "a\n\nb"

    def test_unnormalizable_lines_kept(self):
        assert lexical_dedup("-\n-") == "-\n-"

    def test_empty(self):
        assert lexical_dedup("") == ""

    @settings(max_examples=200)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=300))
    def test_idempotent(self, text):
        once = lexical_dedup(text)
        assert lexical_dedup(once) == once

    @settings(max_examples=200)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=300))
    def test_result_has_no_duplicates(self, text):
        assert _repeats(lexical_dedup(text)) == 0

    def test_seeded_corpus_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            text = local.seeded_text(rng)
            once = lexical_dedup(text)
            assert lexical_dedup(once) == once
            assert _repeats(once) == 0


class TestDuplicatesBefore:
    """A saturated section carries over uncritiqued, and its update counts the
    repeats it already holds, the lines lexical dedup would drop."""

    @pytest.mark.parametrize(
        ("content", "repeats"), [("a\nb\na\n- a\nc", 2), ("a\nb\nc", 0), ("", 0)], ids=["repeats", "unique", "empty"]
    )
    def test_counts_repeats(self, build_state, content, repeats):
        state = build_state(constraints=content)
        result = step(state, ScriptedBackend("unused"), saturated=frozenset({SectionKind.CONSTRAINTS}))
        update = result.updates[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)]
        assert update.saturated
        assert (update.duplicates_before, update.duplicates_after) == (repeats, repeats)


class TestStep:
    def test_mock_round_updates_every_section(self, build_state):
        state = build_state(
            system_role="You are a quiz assistant.",
            task_details="Answer each question.",
        )
        result = step(state, MockCritic())
        assert result.state.iteration == 1
        assert result.state.parent_digest == state.digest
        assert _failures(result.updates) == []
        assert [u.gradient.target for u in result.updates] == list(CANONICAL_ORDER)
        for kind in CANONICAL_ORDER:
            before = state.section(kind).content
            after = result.state.section(kind).content
            assert after != before
            assert before in after or before == ""

    def test_empty_gradient_leaves_section_object_alone(self, build_state):
        state = build_state(task_details="Answer.")
        critic = section_critic({SectionKind.TASK_DETAILS: "Show your work."})
        result = step(state, critic)
        for kind in CANONICAL_ORDER:
            if kind is SectionKind.TASK_DETAILS:
                assert result.state.section(kind).content == "Answer.\n\nShow your work."
            else:
                assert result.state.section(kind) is state.section(kind)

    def test_gradients_computed_against_incoming_state(self, build_state):
        # Every critique must see the pre-step prompt: no reply may contain
        # another section's freshly added directive.
        state = build_state(task_details="Answer.")
        seen_contexts: list[str] = []

        def reply(turns, params):
            seen_contexts.append(turns[-1].content)
            return "Added line."

        step(state, ScriptedBackend(reply))
        for prompt in seen_contexts:
            assert "Added line." not in prompt

    def test_backend_error_isolated_to_one_section(self, build_state):
        state = build_state(task_details="Answer.", constraints="Be brief.")

        def reply(turns, params):
            if called_for()[1] is SectionKind.CONSTRAINTS:
                raise BackendError("critic offline")
            return "Extra line."

        result = step(state, ScriptedBackend(reply))
        ((kind, reason),) = _failures(result.updates)
        assert kind is SectionKind.CONSTRAINTS
        assert "critic offline" in reason
        assert result.state.section(SectionKind.CONSTRAINTS) is state.section(
            SectionKind.CONSTRAINTS
        )
        # The sentinel keeps the gradient tuple aligned with section order.
        index = CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)
        assert result.updates[index].gradient.is_empty
        assert result.state.section(SectionKind.TASK_DETAILS).content.endswith("Extra line.")

    def test_tag_bearing_reply_isolated(self, build_state):
        state = build_state(constraints="Be brief.")
        critic = section_critic({SectionKind.CONSTRAINTS: "Add a <Task> marker."})
        result = step(state, critic)
        assert result.state.section(SectionKind.CONSTRAINTS) is state.section(
            SectionKind.CONSTRAINTS
        )
        assert [kind for kind, _ in _failures(result.updates)] == [SectionKind.CONSTRAINTS]

    def test_lexical_dedup_drops_repeated_directive(self, build_state):
        state = build_state(constraints="Be brief.")
        critic = section_critic({SectionKind.CONSTRAINTS: "Be brief."})
        result = step(state, critic)
        section = result.state.section(SectionKind.CONSTRAINTS)
        assert section.content == "Be brief."
        # Nothing new landed, so the section is not recorded as refined.
        assert section is state.section(SectionKind.CONSTRAINTS)
        assert section.provenance is Provenance.ORIGINAL

    def test_budget_cut_of_every_directive_keeps_incoming_section(self, build_state):
        state = build_state(constraints="Be brief.")
        critic = section_critic({SectionKind.CONSTRAINTS: "Answer with one letter only."})
        result = step(state, critic, OptimizerConfig(max_section_tokens=4))
        section = result.state.section(SectionKind.CONSTRAINTS)
        assert section is state.section(SectionKind.CONSTRAINTS)
        assert section.provenance is Provenance.ORIGINAL
        assert result.updates[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)].truncated == 1

    def test_llm_dedup_mode_calls_critic(self, build_state):
        state = build_state(constraints="Be brief.")
        config = OptimizerConfig(dedup_mode=DedupMode.LLM)
        result = step(state, MockCritic(), config)
        # Mock consolidation removes exact duplicates; the new directive stays.
        content = result.state.section(SectionKind.CONSTRAINTS).content
        assert content.splitlines()[0] == "Be brief."
        assert len(content.splitlines()) > 1

    def test_lexical_then_llm_mode(self, build_state):
        state = build_state(constraints="Be brief.")
        config = OptimizerConfig(dedup_mode=DedupMode.LEXICAL_THEN_LLM)
        result = step(state, MockCritic(), config)
        assert "Be brief." in result.state.section(SectionKind.CONSTRAINTS).content

    def test_token_budget_truncates(self, build_state, caplog):
        state = build_state(constraints="Be brief.")
        directives = "\n".join(f"Rule number {i} applies." for i in range(20))
        critic = section_critic({SectionKind.CONSTRAINTS: directives})
        config = OptimizerConfig(max_section_tokens=10)
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            result = step(state, critic, config)
        section = result.state.section(SectionKind.CONSTRAINTS)
        assert section.token_count <= 10
        assert section.content.splitlines()[0] == "Be brief."
        assert any("truncated" in message for message in caplog.messages)

    def test_no_truncation_warning_without_a_cut(self, build_state, caplog):
        # An empty section given one directive longer than the budget keeps
        # that one line: nothing is cut, so nothing is reported as truncated.
        critic = section_critic({SectionKind.CONSTRAINTS: "Answer with one letter only."})
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            result = step(build_state(), critic, OptimizerConfig(max_section_tokens=2))
        section = result.state.section(SectionKind.CONSTRAINTS)
        assert section.content == "Answer with one letter only."
        assert result.updates[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)].truncated == 0
        assert [m for m in caplog.messages if "truncated" in m] == []

    def test_update_record_separates_dedup_from_truncation(self, build_state):
        state = build_state(constraints="Be brief.")
        rules = "\n".join(f"Rule number {i} applies." for i in range(20))
        critic = section_critic({SectionKind.CONSTRAINTS: f"Be brief.\n{rules}"})
        result = step(state, critic, OptimizerConfig(max_section_tokens=10))
        # The budget keeps the oldest lines, so the newest directives are cut.
        assert result.state.section(SectionKind.CONSTRAINTS).content == (
            "Be brief.\n\nRule number 0 applies.\nRule number 1 applies."
        )
        record = result.updates[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)]
        assert record.failure is None
        assert (record.duplicates_before, record.duplicates_after) == (1, 0)
        assert (record.removed, record.truncated) == (1, 18)
        report = growth_metrics(RunHistory(states=(state, result.state), updates=(result.updates,)))
        # Before the split, lines_removed reported the sum, 19.
        assert (report["lines_removed"], report["lines_truncated"]) == ([1], [18])

    def test_failed_update_record(self, build_state):
        state = build_state(constraints="Be brief.")
        critic = section_critic({SectionKind.CONSTRAINTS: "Add a <Task> marker.\nBe brief."})
        record = step(state, critic).updates[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)]
        assert record.failure.startswith("update failed:")
        assert record.gradient.directives == ("Add a <Task> marker.", "Be brief.")
        assert (record.duplicates_before, record.removed, record.truncated) == (0, 0, 0)

    def test_process_order_does_not_change_result(self, build_state):
        state = build_state(
            system_role="You are a quiz assistant.",
            task_details="Answer each question.",
            constraints="Be brief.",
        )
        baseline = step(state, MockCritic()).state.digest
        for order in (tuple(reversed(CANONICAL_ORDER)), CANONICAL_ORDER[2:] + CANONICAL_ORDER[:2]):
            assert step(state, MockCritic(), process_order=order).state.digest == baseline

    def test_invalid_process_order_rejected(self, build_state):
        state = build_state()
        with pytest.raises(ValueError):
            step(state, MockCritic(), process_order=(SectionKind.CONSTRAINTS,) * 5)

    def test_concurrent_matches_sequential(self, build_state):
        state = build_state(
            system_role="You are a quiz assistant.",
            task_details="Answer each question.",
        )
        sequential = step(state, MockCritic())
        concurrent = step(state, MockCritic(), OptimizerConfig(concurrency_width=3))
        assert concurrent.state.digest == sequential.state.digest
        assert concurrent.updates == sequential.updates

    def test_concurrent_isolates_backend_errors(self, build_state):
        state = build_state(task_details="Answer.")

        def reply(turns, params):
            if called_for()[1] is SectionKind.TASK_DETAILS:
                raise BackendError("down")
            return ""

        result = step(state, ScriptedBackend(reply), OptimizerConfig(concurrency_width=4))
        assert [kind for kind, _ in _failures(result.updates)] == [SectionKind.TASK_DETAILS]


    def test_llm_consolidations_overlap_across_sections(self, build_state):
        state = build_state(
            system_role="You are a quiz assistant.",
            relevant_context="Questions cover biology.",
            task_details="Answer each question.",
            constraints="Be brief.",
            output_format="Reply with one letter.",
        )

        def critic(barrier: threading.Barrier | None) -> ScriptedBackend:
            def reply(turns, params):
                task, kind = called_for()
                if task == "critique":
                    return f"Keep the {kind.display_name} short."
                if barrier is not None:
                    barrier.wait()  # passes only once all five consolidations are in flight
                return default_template("consolidate").values(turns[-1].content)["SECTION_CONTENT"]

            return ScriptedBackend(reply)

        config = OptimizerConfig(dedup_mode=DedupMode.LLM)
        serial = step(state, critic(None), config)
        overlapped = step(
            state,
            critic(threading.Barrier(5, timeout=5)),
            OptimizerConfig(dedup_mode=DedupMode.LLM, concurrency_width=5),
        )
        assert _failures(overlapped.updates) == []
        assert overlapped.state.digest == serial.state.digest
        assert "Keep the Constraints short." in overlapped.state.section(SectionKind.CONSTRAINTS).content

    def test_failures_follow_process_order(self, build_state):
        state = build_state(task_details="Answer.", constraints="Be brief.")

        def reply(turns, params):
            task, kind = called_for()
            if task != "critique":
                return "<Constraints>"  # tagged consolidation reply is rejected
            if kind is SectionKind.TASK_DETAILS:
                raise BackendError("down")
            return "Add a rule." if kind is SectionKind.CONSTRAINTS else ""

        config = OptimizerConfig(dedup_mode=DedupMode.LLM, concurrency_width=5)
        for order in (CANONICAL_ORDER, tuple(reversed(CANONICAL_ORDER))):
            result = step(state, ScriptedBackend(reply), config, process_order=order)
            failed = {kind for kind, _ in _failures(result.updates)}
            assert failed == {SectionKind.TASK_DETAILS, SectionKind.CONSTRAINTS}
            assert result.state.section(SectionKind.CONSTRAINTS).content == "Be brief."
            assert result.updates[3].gradient.directives == ("Add a rule.",)

    def test_non_backend_error_aborts_at_every_width(self, build_state):
        state = build_state(task_details="Answer.")

        def reply(turns, params):
            if called_for()[1] is SectionKind.CONSTRAINTS:
                raise ReplayMiss("diverged")
            return ""

        for width in (1, 5):
            with pytest.raises(ReplayMiss):
                step(state, ScriptedBackend(reply), OptimizerConfig(concurrency_width=width))


class TestSaturation:
    @staticmethod
    def counting_critic(replies: dict[SectionKind, str]) -> tuple[ScriptedBackend, list[str]]:
        shown: list[str] = []
        inner = section_critic(replies)

        def reply(turns, params):
            shown.append(default_template("gradient").values(turns[-1].content)["SECTION_KIND"])
            return inner.complete(turns, params)

        return ScriptedBackend(reply), shown

    def test_section_at_budget_is_not_critiqued(self, build_state):
        # 10 tokens, one repeated line: at a budget of 10 it is saturated.
        state = build_state(constraints="Be brief.\nbe brief\nCite one source for each claim.")
        critic, shown = self.counting_critic({SectionKind.CONSTRAINTS: "Add more rules."})
        result = step(state, critic, OptimizerConfig(max_section_tokens=10))
        assert "Constraints" not in shown and len(shown) == 4
        kind = SectionKind.CONSTRAINTS
        assert result.state.section(kind) is state.section(kind)
        record = result.updates[CANONICAL_ORDER.index(kind)]
        assert record.saturated and record.failure is None
        assert record.gradient == TextualGradient.empty(kind, critic_identity=critic.identity)
        assert (record.duplicates_before, record.duplicates_after) == (1, 1)
        assert (record.removed, record.truncated) == (0, 0)
        assert _failures(result.updates) == []
        assert [u.saturated for u in result.updates] == [k is kind for k in CANONICAL_ORDER]

    def test_listed_section_is_skipped_under_budget(self, build_state):
        state = build_state(task_details="Answer each question.")
        critic, shown = self.counting_critic({})
        result = step(state, critic, saturated=frozenset({SectionKind.TASK_DETAILS}))
        assert "Task Details" not in shown
        expected = [k is SectionKind.TASK_DETAILS for k in CANONICAL_ORDER]
        assert [u.saturated for u in result.updates] == expected

    def test_cut_section_stays_saturated(self, build_state):
        state = build_state(constraints="Be brief.")
        rules = "Rule one applies.\nRule two applies."
        critic, shown = self.counting_critic({SectionKind.CONSTRAINTS: rules})
        history = optimize(state, critic, OptimizerConfig(iterations=4, max_section_tokens=7))
        assert shown.count("Constraints") == 1
        final = history.final.section(SectionKind.CONSTRAINTS)
        assert final.content == "Be brief.\n\nRule one applies."
        constraints = [r[CANONICAL_ORDER.index(SectionKind.CONSTRAINTS)] for r in history.updates]
        assert [(u.truncated, u.saturated) for u in constraints] == [(1, False)] + [(0, True)] * 3
        assert growth_metrics(history)["sections_saturated"] == [0, 1, 1, 1]


class TestOptimize:
    def test_mock_run_converges_after_first_iteration(self, build_state):
        state = build_state(task_details="Answer each question.")
        history = optimize(state, MockCritic(), OptimizerConfig(iterations=3))
        assert history.iterations == 3
        assert len(history.states) == 4
        assert history.initial is state
        assert history.digests[1] == history.digests[2] == history.digests[3]
        assert history.digests[0] != history.digests[1]
        assert history.final.iteration == 3

    def test_zero_iterations(self, build_state):
        state = build_state(task_details="x")
        history = optimize(state, MockCritic(), OptimizerConfig(iterations=0))
        assert history.states == (state,)
        assert history.gradients == ()

    def test_rejects_nonzero_initial_iteration(self, build_state):
        state = build_state(task_details="x")
        bumped = step(state, MockCritic()).state
        with pytest.raises(ValueError):
            optimize(bumped, MockCritic())

    def test_replay_miss_aborts_with_partial_history(self, build_state):
        state = build_state(task_details="Answer each question.")
        recorder = Recorder(MockCritic())
        optimize(state, recorder, OptimizerConfig(iterations=1))
        # The transcript holds exactly one round; asking for two must abort
        # on the second, keeping the first round's result.
        replay = ReplayBackend(recorder.records())
        with pytest.raises(OptimizationAborted) as excinfo:
            optimize(state, replay, OptimizerConfig(iterations=2))
        aborted = excinfo.value
        assert isinstance(aborted.__cause__, ReplayMiss)
        assert aborted.history.iterations == 1
        assert aborted.history.initial is state

    def test_per_section_failures_do_not_abort(self, build_state):
        state = build_state(task_details="Answer.")

        def reply(turns, params):
            raise BackendError("always down")

        history = optimize(state, ScriptedBackend(reply), OptimizerConfig(iterations=2))
        assert history.iterations == 2
        assert history.final.sections == state.sections
        assert len(history.failures[0]) == 5

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("iterations", -1, "iterations must be >= 0"),
            ("concurrency_width", 0, "concurrency_width must be >= 1"),
            ("max_section_tokens", 0, "max_section_tokens must be >= 1"),
        ],
    )
    def test_config_rejects_out_of_range_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OptimizerConfig(**{field: value})


class TestRunHistory:
    def _two_states(self, build_state):
        state = build_state(task_details="x")
        result = step(state, MockCritic())
        return state, result

    def test_gradient_count_must_match(self, build_state):
        state, result = self._two_states(build_state)
        with pytest.raises(ValueError, match="update round"):
            RunHistory(states=(state, result.state), updates=())

    def test_iteration_indices_checked(self, build_state):
        state, result = self._two_states(build_state)
        with pytest.raises(ValueError, match="iteration"):
            RunHistory(states=(result.state,), updates=())

    def test_digest_chain_checked(self, build_state):
        state, result = self._two_states(build_state)
        stranger = PromptState(
            sections=result.state.sections,
            iteration=1,
            parent_digest="0" * 64,
        )
        with pytest.raises(ValueError, match="chain"):
            RunHistory(states=(state, stranger), updates=(result.updates,))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            RunHistory(states=(), updates=())


class TestBaselineGlobalStep:
    def test_echo_rewrite_preserves_sections(self, tagged_prompt):
        result = baseline_global_step(tagged_prompt, MockCritic())
        assert result.iteration == tagged_prompt.iteration + 1
        assert result.parent_digest == tagged_prompt.digest
        assert [s.content for s in result.sections] == [s.content for s in tagged_prompt.sections]
        for section in result.sections:
            if not section.is_empty:
                assert section.provenance is Provenance.REFINED

    def test_unparseable_reply_lands_in_task_section(self, tagged_prompt, caplog):
        critic = ScriptedBackend("Just do better, no tags here.")
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            result = baseline_global_step(tagged_prompt, critic)
        assert result.section(SectionKind.TASK_DETAILS).content == "Just do better, no tags here."
        for kind in CANONICAL_ORDER:
            if kind is not SectionKind.TASK_DETAILS:
                assert result.section(kind).is_empty
        assert any("did not parse" in message for message in caplog.messages)

    def test_rewrites_are_logged_and_replayed_by_purpose(self, tagged_prompt):
        recorder = Recorder(MockCritic())
        states = [tagged_prompt]
        for _ in range(2):
            states.append(baseline_global_step(states[-1], recorder))
        assert [each["purpose"] for each in recorder.records()] == ["rewrite@0", "rewrite@1"]
        replay = ReplayBackend(recorder.records())
        assert [baseline_global_step(state, replay) for state in states[:2]] == states[1:]


class TestGrowthMetrics:
    def test_repeat_directive_scenario(self, build_state):
        state = build_state(constraints="Keep this line.")
        critic = section_critic({SectionKind.CONSTRAINTS: "Keep this line."})
        history = optimize(state, critic, OptimizerConfig(iterations=2))
        report = growth_metrics(history)

        # Expansion doubles the line, dedup removes the copy, every round.
        assert report["total_tokens"] == [3, 3, 3]
        assert report["token_deltas"] == [0, 0]
        assert report["duplicates_before"] == [1, 1]
        assert report["duplicates_after"] == [0, 0]
        assert report["lines_removed"] == [1, 1]
        per_state = report["section_tokens"][0]
        assert per_state[SectionKind.CONSTRAINTS.value] == 3
        assert per_state[SectionKind.SYSTEM_ROLE.value] == 0

    def test_growing_run_counts_tokens(self, build_state):
        state = build_state(task_details="Answer each question.")
        history = optimize(state, MockCritic(), OptimizerConfig(iterations=2))
        report = growth_metrics(history)
        assert report["total_tokens"][1] > report["total_tokens"][0]
        assert report["token_deltas"][0] > 0
        assert report["token_deltas"][1] == 0

    def test_to_dict_uses_kind_values(self, build_state):
        state = build_state(task_details="x")
        history = optimize(state, MockCritic(), OptimizerConfig(iterations=1))
        payload = growth_metrics(history)
        assert set(payload["section_tokens"][0]) == {
            kind.value for kind in CANONICAL_ORDER
        }
