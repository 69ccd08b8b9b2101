"""Evaluation harness: loaders, sampling, extraction, scoring, comparison."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpo import (
    BackendError,
    ChatTurn,
    Comparison,
    Dataset,
    DatasetError,
    DatasetMismatch,
    DuplicateId,
    EvalResult,
    EvaluationAborted,
    FormatError,
    ItemRecord,
    MCQItem,
    MissingAnswerKey,
    PromptTemplate,
    evaluate,
    extract_answer,
    load_dataset,
    pose_question,
    render_prompt,
    sample_items,
)
from mpo import evaluation
from mpo.backends import fan_out

from solvers import ScriptedBackend, gold_solver, scored_solver


@pytest.fixture
def ten_items(data_dir):
    return load_dataset(data_dir / "mcq_ten.jsonl", "generic_jsonl")


class TestMCQItem:
    def _choices(self, *texts):
        return tuple(("ABCD"[i], text) for i, text in enumerate(texts))

    def test_valid(self):
        item = MCQItem("q", "What?", self._choices("one", "two"), "B")
        assert item.letters == ("A", "B")
        assert item.valid_letters == frozenset({"A", "B"})

    def test_answer_outside_choices(self):
        with pytest.raises(ValueError, match="answer key"):
            MCQItem("q", "What?", self._choices("one", "two"), "C")

    def test_letters_must_run_from_a(self):
        with pytest.raises(ValueError, match="consecutively"):
            MCQItem("q", "What?", (("B", "x"), ("C", "y")), "B")

    def test_single_choice_rejected(self):
        with pytest.raises(ValueError, match="2 to 26"):
            MCQItem("q", "What?", (("A", "only"),), "A")

    def test_empty_choice_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            MCQItem("q", "What?", (("A", "x"), ("B", " ")), "A")


class TestLoaders:
    def test_generic_jsonl(self, ten_items):
        assert len(ten_items.items) == 10
        assert ten_items.name == "mcq_ten"
        assert ten_items.split == "test"
        assert [item.answer_key for item in ten_items.items] == list("BCADBACDBA")
        assert ten_items.items[0].id == "q01"
        assert ten_items.items[0].subject is None

    def test_arc_jsonl_digit_labels_mapped(self, data_dir):
        dataset = load_dataset(data_dir / "arc_sample.jsonl", "arc_jsonl")
        assert len(dataset.items) == 5
        by_id = {item.id: item for item in dataset.items}
        assert by_id["sci-1"].answer_key == "C"
        assert by_id["sci-1"].letters == ("A", "B", "C", "D")
        assert by_id["sci-2"].answer_key == "A"
        assert by_id["sci-3"].answer_key == "B"
        assert by_id["sci-5"].answer_key == "E"
        assert by_id["sci-5"].letters == ("A", "B", "C", "D", "E")

    def test_mmlu_csv(self, data_dir):
        dataset = load_dataset(data_dir / "college_biology_test.csv", "mmlu_csv")
        assert dataset.name == "college_biology"
        assert len(dataset.items) == 5
        assert [item.answer_key for item in dataset.items] == list("BCBAB")
        assert dataset.items[0].id == "college_biology-0001"
        assert all(item.subject == "college_biology" for item in dataset.items)
        # The quoted row must survive csv comma handling.
        assert dataset.items[2].question == "In humans, which organ produces insulin?"

    def test_unknown_format(self, data_dir):
        with pytest.raises(ValueError, match="unknown dataset format"):
            load_dataset(data_dir / "mcq_ten.jsonl", "tsv")

    def test_dataset_needs_a_split(self, ten_items):
        with pytest.raises(ValueError, match="^dataset split must be non-empty$"):
            Dataset(name="mcq_ten", split="", items=ten_items.items)

    def test_dataset_rejects_a_repeated_id(self, ten_items):
        items = (*ten_items.items, ten_items.items[3])
        with pytest.raises(DuplicateId, match="^duplicate item id 'q04' in dataset mcq_ten$"):
            Dataset(name="mcq_ten", split="test", items=items)

    def test_arc_without_its_layout(self, tmp_path):
        path = tmp_path / "arc.jsonl"
        path.write_text(json.dumps({"id": "x", "question": "Q?", "answerKey": "A"}), encoding="utf-8")
        with pytest.raises(FormatError, match=r"arc\.jsonl:1: not in ARC layout \("):
            load_dataset(path, "arc_jsonl")

    def test_mmlu_blank_row_skipped(self, tmp_path):
        path = tmp_path / "history_test.csv"
        path.write_text("Q1,a,b,c,d,A\n\nQ3,a,b,c,d,B\n", encoding="utf-8")
        dataset = load_dataset(path, "mmlu_csv")
        assert [(item.id, item.question) for item in dataset.items] == [("history-0001", "Q1"), ("history-0003", "Q3")]

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING", logger="mpo.evaluation"):
            dataset = load_dataset(path, "generic_jsonl")
        assert len(dataset.items) == 0
        assert any("no items" in message for message in caplog.messages)

    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines), encoding="utf-8")
        return path

    def test_missing_answer(self, tmp_path):
        path = self._write(
            tmp_path, [{"id": "x", "question": "Q", "choices": {"A": "a", "B": "b"}}]
        )
        with pytest.raises(MissingAnswerKey, match=r"data\.jsonl:1"):
            load_dataset(path, "generic_jsonl")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        row = {"id": "a", "question": "Q", "choices": {"A": "a", "B": "b"}, "answer": "A"}
        path.write_text(json.dumps(row) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"data\.jsonl:2"):
            load_dataset(path, "generic_jsonl")

    def test_choices_must_be_object(self, tmp_path):
        path = self._write(
            tmp_path, [{"id": "x", "question": "Q", "choices": ["a", "b"], "answer": "A"}]
        )
        with pytest.raises(FormatError, match="object"):
            load_dataset(path, "generic_jsonl")

    def test_duplicate_ids(self, tmp_path):
        row = {"id": "x", "question": "Q", "choices": {"A": "a", "B": "b"}, "answer": "A"}
        path = self._write(tmp_path, [row, row])
        with pytest.raises(DuplicateId, match=r"data\.jsonl:2"):
            load_dataset(path, "generic_jsonl")

    def test_question_must_be_text(self, tmp_path):
        path = self._write(
            tmp_path, [{"id": "x", "question": 5, "choices": {"A": "a", "B": "b"}, "answer": "A"}]
        )
        with pytest.raises(FormatError, match=r"data\.jsonl:1: item x: question must be text"):
            load_dataset(path, "generic_jsonl")

    def test_subject_must_be_text_or_null(self, tmp_path):
        row = {"question": "Q", "choices": {"A": "a", "B": "b"}, "answer": "A"}
        path = self._write(tmp_path, [{**row, "id": "x", "subject": "s"}, {**row, "id": "y", "subject": 5}])
        with pytest.raises(FormatError, match=r"data\.jsonl:2: item y: subject must be text or null"):
            load_dataset(path, "generic_jsonl")

    @pytest.mark.parametrize("line", ['"answer"', '["answer"]'])
    @pytest.mark.parametrize("format", ["generic_jsonl", "arc_jsonl"])
    def test_line_must_hold_an_object(self, tmp_path, line, format):
        path = tmp_path / "data.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"data\.jsonl:2: expected a JSON object"):
            load_dataset(path, format)

    @pytest.mark.parametrize(
        "changed, message",
        [
            ({"id": ""}, "item id must be non-empty"),
            ({"question": "  "}, "item x: question must be non-empty"),
            ({"choices": {"1": "a", "2": "b"}, "answer": "3"}, "answer '3' not among labels ['1', '2']"),
            ({"question": ...}, "missing field 'question'"),
        ],
        ids=["empty_id", "blank_question", "digit_answer_not_a_label", "no_question"],
    )
    def test_generic_row_rejected_at_its_line(self, tmp_path, changed, message):
        good = {"id": "a", "question": "Q", "choices": {"A": "a", "B": "b"}, "answer": "A"}
        row = {key: value for key, value in {**good, "id": "x", **changed}.items() if value is not ...}
        with pytest.raises(FormatError, match=re.escape(f"data.jsonl:2: {message}")):
            load_dataset(self._write(tmp_path, [good, row]), "generic_jsonl")

    def test_digit_label_zero_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [{"id": "x", "question": "Q", "choices": {"0": "a", "1": "b"}, "answer": "1"}],
        )
        with pytest.raises(FormatError, match="out of range"):
            load_dataset(path, "generic_jsonl")

    # JSON values that have no text of their own: str() would turn null into
    # "None" and true into "True", and score against them.
    NOT_TEXT = pytest.mark.parametrize(
        "bad, shown", [(None, "null"), (True, "true"), (["A"], '["A"]'), ({"A": 1}, '{"A": 1}')]
    )

    @NOT_TEXT
    @pytest.mark.parametrize("field", ["id", "choice 'A'", "answer"])
    def test_generic_fields_must_be_strings_or_numbers(self, tmp_path, field, bad, shown):
        good = {"id": 7, "question": "Q", "choices": {"A": "a", "B": 2}, "answer": "A"}
        (item,) = load_dataset(self._write(tmp_path, [good]), "generic_jsonl").items
        assert (item.id, item.choices) == ("7", (("A", "a"), ("B", "2")))  # numbers keep their digits
        row = {**good, "id": 8, "choices": dict(good["choices"])}
        if field == "choice 'A'":
            row["choices"]["A"] = bad
        else:
            row[field] = bad
        path = self._write(tmp_path, [good, row])
        with pytest.raises(FormatError, match=re.escape(f"data.jsonl:2: {field} must be a string or a number, got {shown}")):
            load_dataset(path, "generic_jsonl")

    @NOT_TEXT
    @pytest.mark.parametrize("field", ["id", "choice label", "choice text", "answerKey"])
    def test_arc_fields_must_be_strings_or_numbers(self, tmp_path, field, bad, shown):
        choices = [{"label": 1, "text": "a"}, {"label": 2, "text": 3}]
        row = {"id": 7, "question": {"stem": "Q", "choices": choices}, "answerKey": 2}
        path = tmp_path / "arc.jsonl"
        path.write_text(json.dumps(row), encoding="utf-8")
        (item,) = load_dataset(path, "arc_jsonl").items
        assert (item.id, item.choices, item.answer_key) == ("7", (("A", "a"), ("B", "3")), "B")
        if field.startswith("choice"):
            choices[0][field.split()[1]] = bad
        else:
            row[field] = bad
        path.write_text(json.dumps(row), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"arc.jsonl:1: {field} must be a string or a number, got {shown}")):
            load_dataset(path, "arc_jsonl")

    def test_arc_missing_answer_key(self, tmp_path):
        path = tmp_path / "arc.jsonl"
        row = {"id": "x", "question": {"stem": "Q", "choices": [{"label": "A", "text": "a"}, {"label": "B", "text": "b"}]}}
        path.write_text(json.dumps(row), encoding="utf-8")
        with pytest.raises(MissingAnswerKey, match="answerKey"):
            load_dataset(path, "arc_jsonl")

    def test_arc_malformed_choices(self, tmp_path):
        path = tmp_path / "arc.jsonl"
        row = {"id": "x", "question": {"stem": "Q", "choices": ["bare"]}, "answerKey": "A"}
        path.write_text(json.dumps(row), encoding="utf-8")
        with pytest.raises(FormatError, match="choice entry"):
            load_dataset(path, "arc_jsonl")

    def test_mmlu_wrong_column_count(self, tmp_path):
        path = tmp_path / "history_test.csv"
        path.write_text("Q,a,b,c,B\n", encoding="utf-8")
        with pytest.raises(FormatError, match="6 columns"):
            load_dataset(path, "mmlu_csv")

    def test_mmlu_empty_answer(self, tmp_path):
        path = tmp_path / "history_test.csv"
        path.write_text("Q,a,b,c,d,\n", encoding="utf-8")
        with pytest.raises(MissingAnswerKey, match=r"history_test\.csv:1"):
            load_dataset(path, "mmlu_csv")

    def test_mmlu_answer_outside_choices(self, tmp_path):
        path = tmp_path / "history_test.csv"
        path.write_text("Q,a,b,c,d,E\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_dataset(path, "mmlu_csv")

    def test_generic_non_utf8_byte_named_by_line_and_file_offset(self, tmp_path):
        path = tmp_path / "items.jsonl"
        rows = [{"id": str(n), "question": f"Question {n}?", "choices": {"A": "x" * 100, "B": "y"}, "answer": "A"} for n in range(100)]
        data = bytearray("".join(json.dumps(row) + "\n" for row in rows), "utf-8")
        offset = data.index(b"Question 77")
        data[offset] = 0xFF
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as caught:
            load_dataset(path, "generic_jsonl")
        assert caught.value.start == offset > 8192  # past the text reader's first decode chunk
        assert str(caught.value).endswith(f"invalid start byte (line 78, file byte offset {offset})")

    def test_mmlu_non_utf8_byte_named_by_line_and_file_offset(self, tmp_path):
        path = tmp_path / "history_test.csv"
        data = bytearray("".join(f"Question {n} {'x' * 100}?,a,b,c,d,A\n" for n in range(100)), "utf-8")
        offset = data.index(b"Question 77")
        data[offset] = 0xFF
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as caught:
            load_dataset(path, "mmlu_csv")
        assert caught.value.start == offset > 8192  # past the text reader's first decode chunk
        assert str(caught.value).endswith(f"invalid start byte (line 78, file byte offset {offset})")

    @pytest.mark.parametrize(
        ("filename", "subject"),
        [
            ("anatomy_test.csv", "anatomy"),
            ("anatomy_dev.csv", "anatomy"),
            ("world_religions_val.csv", "world_religions"),
            ("plain.csv", "plain"),
        ],
    )
    def test_subject_from_filename(self, tmp_path, filename, subject):
        path = tmp_path / filename
        path.write_text("Q,a,b,c,d,A\n", encoding="utf-8")
        dataset = load_dataset(path, "mmlu_csv")
        assert dataset.name == subject
        assert dataset.items[0].id == f"{subject}-0001"


class TestSampleItems:
    def test_matches_documented_contract(self, ten_items):
        picked = sorted(random.Random(0).sample(range(10), 3))
        expected = tuple(ten_items.items[i] for i in picked)
        assert sample_items(ten_items, 3, seed=0).items == expected

    def test_preserves_dataset_order(self, ten_items):
        sampled = sample_items(ten_items, 5, seed=42).items
        positions = [ten_items.items.index(item) for item in sampled]
        assert positions == sorted(positions)

    def test_deterministic_per_seed(self, ten_items):
        assert sample_items(ten_items, 4, seed=9).items == sample_items(ten_items, 4, seed=9).items

    def test_limit_at_or_above_size_is_identity(self, ten_items):
        assert sample_items(ten_items, 10) is ten_items
        assert sample_items(ten_items, 11) is ten_items

    def test_limit_below_one_rejected(self, ten_items):
        with pytest.raises(ValueError):
            sample_items(ten_items, 0)


class TestPoseQuestion:
    def test_contains_prompt_question_and_choices(self, tagged_prompt, ten_items):
        item = ten_items.items[0]
        posed = pose_question(render_prompt(tagged_prompt), item)
        assert posed.startswith(render_prompt(tagged_prompt))
        assert item.question in posed
        for letter, text in item.choices:
            assert f"{letter}. {text}" in posed
        assert "Answer with the letter" in posed


class TestExtractAnswer:
    VALID = frozenset("ABCD")

    @pytest.mark.parametrize(
        ("response", "expected"),
        [
            ("Answer: B", "B"),
            ("answer: c", "C"),
            ("  ANSWER : (d).  ", "D"),
            ("Let me think.\nAnswer: A", "A"),
            ("Answer: E\nAnswer: B", "B"),
            ("C", "C"),
            ("D.", "D"),
            ("b", None),
            ("(A) is right", "A"),
            ("I believe B is correct", "B"),
            ("The answer is clearly beyond me", None),
            ("", None),
            ("second line only\nB or C", None),
        ],
    )
    def test_cases(self, response, expected):
        assert extract_answer(response, self.VALID) == expected

    def test_never_returns_invalid_letter(self):
        assert extract_answer("Answer: Z", self.VALID) is None
        assert extract_answer("Z", self.VALID) is None
        assert extract_answer("X marks the spot", self.VALID) is None

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_total_and_closed_over_valid(self, response):
        result = extract_answer(response, self.VALID)
        assert result is None or result in self.VALID


class TestEvaluate:
    def test_gold_solver_scores_one(self, tagged_prompt, ten_items):
        result = evaluate(tagged_prompt, ten_items, gold_solver(ten_items))
        assert result.accuracy == 1.0
        assert result.correct == 10
        assert result.total == 10
        assert result.unparseable == 0
        assert result.prompt_digest == tagged_prompt.digest
        assert [record.id for record in result.records] == [
            item.id for item in ten_items.items
        ]

    def test_seven_of_ten(self, tagged_prompt, ten_items):
        correct = {item.id for item in ten_items.items[:7]}
        result = evaluate(tagged_prompt, ten_items, scored_solver(ten_items, correct))
        assert result.accuracy == 0.7
        assert result.correct == 7
        assert result.unparseable == 0

    def test_unreadable_responses_score_zero(self, tagged_prompt, ten_items):
        result = evaluate(tagged_prompt, ten_items, ScriptedBackend("no letter here"))
        assert result.accuracy == 0.0
        assert result.unparseable == 10
        assert all(record.extracted is None for record in result.records)
        assert all(not record.correct for record in result.records)

    def test_solver_failures_recorded_below_threshold(self, tagged_prompt, ten_items):
        bad = {item.id for item in ten_items.items[:3]}
        by_question = {item.question: item for item in ten_items.items}

        def reply(turns, params):
            posed = turns[-1].content
            item = next(i for q, i in by_question.items() if q in posed)
            if item.id in bad:
                raise BackendError("flaky")
            return f"Answer: {item.answer_key}"

        result = evaluate(tagged_prompt, ten_items, ScriptedBackend(reply))
        assert result.total == 10
        assert result.correct == 7
        failed = [record for record in result.records if record.note]
        assert len(failed) == 3
        assert all("solver failed" in record.note for record in failed)
        assert all(record.extracted is None for record in failed)

    def test_majority_failures_abort_with_partial(self, tagged_prompt, ten_items):
        def reply(turns, params):
            raise BackendError("down")

        with pytest.raises(EvaluationAborted) as excinfo:
            evaluate(tagged_prompt, ten_items, ScriptedBackend(reply))
        partial = excinfo.value.result
        # Sequential mode stops at the first item that tips past half.
        assert partial.total == 6
        assert all(record.note for record in partial.records)

    @pytest.mark.parametrize("width", [1, 3])
    def test_each_solved_item_is_posed_once_through_pose_question(self, tagged_prompt, ten_items, monkeypatch, width):
        # Rebound on the module by name, as a tracer that wraps mpo's functions does.
        posed, original = [], evaluation.pose_question

        def counting(prompt, item, template=None):
            posed.append(item.id)
            return original(prompt, item, template)

        def down(turns, params):
            raise BackendError("down")

        monkeypatch.setattr(evaluation, "pose_question", counting)
        evaluate(tagged_prompt, ten_items, gold_solver(ten_items), concurrency=width)
        assert sorted(posed) == sorted(item.id for item in ten_items.items)
        posed.clear()
        with pytest.raises(EvaluationAborted) as excinfo:
            evaluate(tagged_prompt, ten_items, ScriptedBackend(down))
        assert posed == [record.id for record in excinfo.value.result.records]  # the 6 items solved, not 10

    @pytest.mark.parametrize("template", [None, PromptTemplate("Q: {QUESTION}\n{CHOICES}\nReply with one letter.")])
    def test_each_request_is_the_posed_question(self, tagged_prompt, ten_items, template):
        requests = []

        def reply(turns, params):
            requests.append(turns)
            return "Answer: A"

        evaluate(tagged_prompt, ten_items, ScriptedBackend(reply), template=template)
        prompt = render_prompt(tagged_prompt)
        assert requests == [(ChatTurn("user", pose_question(prompt, item, template)),) for item in ten_items.items]

    def test_concurrent_matches_sequential(self, tagged_prompt, ten_items):
        solver = gold_solver(ten_items)
        sequential = evaluate(tagged_prompt, ten_items, solver)
        concurrent = evaluate(tagged_prompt, ten_items, solver, concurrency=3)
        assert concurrent.records == sequential.records
        assert concurrent.accuracy == sequential.accuracy

    def test_abort_point_same_at_every_width(self, tagged_prompt, ten_items):
        def reply(turns, params):
            raise BackendError("down")

        partials = []
        for width in (1, 4):
            with pytest.raises(EvaluationAborted) as excinfo:
                evaluate(tagged_prompt, ten_items, ScriptedBackend(reply), concurrency=width)
            partials.append(excinfo.value.result)
        # The abort is counted in items, in dataset order, not in arrival time.
        assert partials[0] == partials[1]
        assert partials[0].total == 6

    @staticmethod
    def _numbered(count):
        items = tuple(MCQItem(f"q{n:02d}", f"Question {n}?", (("A", "x"), ("B", "y")), "A") for n in range(count))
        return Dataset(name="numbered", split="test", items=items)

    @staticmethod
    def _number(turns):
        return int(re.search(r"Question (\d+)\?", turns[-1].content).group(1))

    def test_aborted_run_calls_no_item_past_the_last_failure(self, tagged_prompt, caplog):
        called, last_called = [], threading.Event()

        def reply(turns, params):
            number = self._number(turns)
            called.append(number)
            if number == 39:
                last_called.set()
            if number == 20:
                last_called.wait(timeout=0.5)
            raise BackendError("down")

        with caplog.at_level("WARNING", logger="mpo.evaluation"), pytest.raises(EvaluationAborted) as caught:
            evaluate(tagged_prompt, self._numbered(40), ScriptedBackend(reply), concurrency=8)
        records = caught.value.result.records
        assert len(records) == 21
        # While item 20 waits, at most 7 taken items are unfinished, so by the
        # time item 28 is taken more than 20 have failed: it and every later
        # item are skipped.
        assert max(called) <= 27
        assert [message.split(":")[0] for message in caplog.messages] == [f"item {r.id}" for r in records]

    def test_item_taken_before_later_failures_is_still_solved(self, tagged_prompt, monkeypatch):
        # Item 3 is taken but only reaches the solver after items 4-9 have
        # failed, more than half of all ten: its record is still read.
        later_failed, done = threading.Event(), []

        def delayed_fan_out(fn, items, width):
            def call(index):
                if index == 3:
                    later_failed.wait(timeout=5)
                try:
                    return fn(index)
                finally:
                    done.append(index)
                    if len([i for i in done if i > 3]) == 6:
                        later_failed.set()

            return fan_out(call, items, width)

        def reply(turns, params):
            if self._number(turns) > 3:
                raise BackendError("down")
            return "Answer: A"

        monkeypatch.setattr("mpo.evaluation.fan_out", delayed_fan_out)
        with pytest.raises(EvaluationAborted) as caught:
            evaluate(tagged_prompt, self._numbered(10), ScriptedBackend(reply), concurrency=8)
        assert later_failed.is_set()
        assert [record.correct for record in caught.value.result.records] == [True] * 4 + [False] * 6

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        failing=st.sets(st.integers(0, 11)),
        delays=st.lists(st.integers(0, 2), min_size=12, max_size=12),
        count=st.integers(1, 12),
        width=st.integers(2, 8),
    )
    def test_records_and_abort_point_match_width_one(self, tagged_prompt, failing, delays, count, width):
        def run(width):
            def reply(turns, params):
                number = self._number(turns)
                time.sleep(delays[number] / 1000 if width > 1 else 0)
                if number in failing:
                    raise BackendError("down")
                return "Answer: A"

            try:
                return evaluate(tagged_prompt, self._numbered(count), ScriptedBackend(reply), concurrency=width)
            except EvaluationAborted as exc:
                return "aborted", exc.result

        assert run(width) == run(1)

    def test_empty_dataset_rejected(self, tagged_prompt):
        empty = Dataset(name="none", split="test", items=())
        with pytest.raises(DatasetError, match="no items"):
            evaluate(tagged_prompt, empty, ScriptedBackend("A"))

    def test_zero_concurrency_rejected(self, tagged_prompt, ten_items):
        with pytest.raises(ValueError, match="^concurrency must be >= 1$"):
            evaluate(tagged_prompt, ten_items, gold_solver(ten_items), concurrency=0)

    def test_per_subject_breakdown(self, tagged_prompt, data_dir):
        dataset = load_dataset(data_dir / "college_biology_test.csv", "mmlu_csv")
        result = evaluate(tagged_prompt, dataset, gold_solver(dataset))
        assert result.per_subject == {"college_biology": (5, 5, 1.0)}
        assert result.to_dict()["macro_accuracy"] == 1.0

    def test_no_subjects_no_macro(self, tagged_prompt, ten_items):
        result = evaluate(tagged_prompt, ten_items, gold_solver(ten_items))
        assert result.per_subject == {}
        assert "per_subject" not in result.to_dict()
        assert "macro_accuracy" not in result.to_dict()


class TestItemRecord:
    ROW = {"id": "a", "raw_response": "B", "extracted": "B", "gold": "A", "correct": False, "subject": None, "note": ""}

    def test_round_trip(self):
        record = ItemRecord.from_dict(self.ROW)
        assert record.to_dict() == self.ROW

    @pytest.mark.parametrize("name", ["id", "raw_response", "gold", "note"])
    def test_text_fields_must_be_strings(self, name):
        with pytest.raises(ValueError, match=f"'{name}' must be a string$"):
            ItemRecord.from_dict({**self.ROW, name: 5})

    @pytest.mark.parametrize("name", ["extracted", "subject"])
    def test_optional_fields_must_be_strings_or_null(self, name):
        with pytest.raises(ValueError, match=f"'{name}' must be a string or null"):
            ItemRecord.from_dict({**self.ROW, name: 5})

    @pytest.mark.parametrize(
        ("extracted", "correct"), [("B", "false"), ("B", True), ("A", 1), ("A", False), (None, None)]
    )
    def test_correct_must_be_extracted_equals_gold(self, extracted, correct):
        with pytest.raises(ValueError, match="'correct' is"):
            ItemRecord.from_dict({**self.ROW, "extracted": extracted, "correct": correct})


    def test_fields_with_a_default_may_be_missing_and_need_no_reader_edit(self):
        @dataclasses.dataclass(frozen=True)
        class Flagged(ItemRecord):
            rule: int = 0

        row = {key: value for key, value in self.ROW.items() if key not in ("subject", "note")}
        assert Flagged.from_dict(row) == Flagged(**self.ROW)
        assert Flagged.from_dict({**row, "rule": 2}).rule == 2
        with pytest.raises(KeyError, match="gold"):
            Flagged.from_dict({key: value for key, value in row.items() if key != "gold"})


class TestEvalResult:
    def _result(self, tagged_prompt, ten_items) -> EvalResult:
        return evaluate(tagged_prompt, ten_items, gold_solver(ten_items))

    def test_dict_round_trip(self, tagged_prompt, ten_items):
        result = self._result(tagged_prompt, ten_items)
        assert EvalResult.from_dict(result.to_dict()) == result

    def test_serialized_form_is_json_safe(self, tagged_prompt, ten_items):
        payload = self._result(tagged_prompt, ten_items).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_ids_digest_order_insensitive(self, tagged_prompt, ten_items):
        result = self._result(tagged_prompt, ten_items)
        reversed_result = EvalResult(
            result.dataset_name,
            result.split,
            result.prompt_digest,
            tuple(reversed(result.records)),
        )
        assert reversed_result.ids_digest == result.ids_digest


class TestComparison:
    def _result(self, tagged_prompt, ten_items, correct_count) -> EvalResult:
        correct = {item.id for item in ten_items.items[:correct_count]}
        return evaluate(tagged_prompt, ten_items, scored_solver(ten_items, correct))

    def test_two_row_table(self, tagged_prompt, ten_items):
        base = self._result(tagged_prompt, ten_items, 5)
        tuned = self._result(tagged_prompt, ten_items, 8)
        comparison = Comparison((("base", base), ("tuned", tuned),))
        text = comparison.to_text()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].split() == ["base", "50.00", "0/10"]
        assert lines[2].split() == ["tuned", "80.00", "+30.00", "0/10"]

    def test_to_dict_shape(self, tagged_prompt, ten_items):
        base = self._result(tagged_prompt, ten_items, 5)
        tuned = self._result(tagged_prompt, ten_items, 4)
        payload = Comparison((("base", base), ("tuned", tuned),)).to_dict()
        assert payload["dataset"] == "mcq_ten"
        assert payload["rows"][0]["delta_pct"] == ""
        assert payload["rows"][1]["delta_pct"] == "-10.00"
        assert payload["rows"][1]["accuracy_pct"] == "40.00"

    def test_needs_two_rows(self, tagged_prompt, ten_items):
        base = self._result(tagged_prompt, ten_items, 5)
        with pytest.raises(ValueError, match="two results"):
            Comparison((("only", base),))

    def test_item_set_mismatch_rejected(self, tagged_prompt, ten_items, data_dir):
        base = self._result(tagged_prompt, ten_items, 5)
        other_dataset = load_dataset(data_dir / "arc_sample.jsonl", "arc_jsonl")
        other = evaluate(tagged_prompt, other_dataset, gold_solver(other_dataset))
        with pytest.raises(DatasetMismatch, match="different item set"):
            Comparison((("base", base), ("other", other),))
