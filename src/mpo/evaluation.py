"""Multiple-choice evaluation: datasets, answer extraction, scoring, comparison.

Scoring is exact match on the extracted choice letter. Extraction applies a
fixed rule order; a response no rule can read scores as incorrect and is
counted separately so the failure mode stays visible. Comparison lines up
results for the same item set and reports percentage-point deltas against the
first entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from random import Random
from typing import Sequence

from .backends import SOLVER_PARAMS, BackendError, ChatTurn, CriticBackend, fan_out, open_utf8
from .schema import PromptState, render_prompt
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

DATASET_FORMATS = ("generic_jsonl", "arc_jsonl", "mmlu_csv")

# Rule 1: an explicit answer line. Case-insensitive; the letter may be
# parenthesized and the line may end in punctuation.
_ANSWER_LINE_RE = re.compile(
    r"^\s*answer\s*:\s*\(?([A-Za-z])\)?\s*[.!?]?\s*$", re.IGNORECASE
)
# Rule 2: the whole response is a single letter, optional trailing punctuation.
_BARE_LETTER_RE = re.compile(r"([A-Za-z])[.!?]?")
# Rule 3: standalone letter tokens (no alphanumeric neighbours).
_STANDALONE_RE = re.compile(r"(?<![A-Za-z0-9])([A-Z])(?![A-Za-z0-9])")


class DatasetError(Exception):
    """Base for dataset loading and validation failures."""


class FormatError(DatasetError):
    """A row or line does not match the declared dataset format."""


class MissingAnswerKey(DatasetError):
    """An item has no gold answer."""


class DuplicateId(DatasetError):
    """Two items in one dataset share an id."""


class DatasetMismatch(Exception):
    """Results being compared do not cover the same item set."""


class EvaluationAborted(Exception):
    """Too many solver failures, or an error such as a replay miss; carries
    the records read before it as a partial result."""

    def __init__(self, message: str, result: "EvalResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class MCQItem:
    """One multiple-choice question with lettered choices and a gold key."""

    id: str
    question: str
    choices: tuple[tuple[str, str], ...]
    answer_key: str
    subject: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be non-empty")
        if not isinstance(self.question, str):
            raise ValueError(f"item {self.id}: question must be text, got {type(self.question).__name__}")
        if not self.question.strip():
            raise ValueError(f"item {self.id}: question must be non-empty")
        if self.subject is not None and not isinstance(self.subject, str):
            raise ValueError(f"item {self.id}: subject must be text or null, got {type(self.subject).__name__}")
        if not 2 <= len(self.choices) <= 26:
            raise ValueError(f"item {self.id}: need 2 to 26 choices, got {len(self.choices)}")
        expected = tuple(LETTERS[i] for i in range(len(self.choices)))
        letters = self.letters
        if letters != expected:
            raise ValueError(
                f"item {self.id}: choice letters must run consecutively from A, got {letters}"
            )
        for letter, text in self.choices:
            if not text.strip():
                raise ValueError(f"item {self.id}: choice {letter} has empty text")
        if self.answer_key not in letters:
            raise ValueError(
                f"item {self.id}: answer key {self.answer_key!r} not among {letters}"
            )

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(letter for letter, _ in self.choices)

    @property
    def valid_letters(self) -> frozenset[str]:
        return frozenset(self.letters)


@dataclass(frozen=True)
class Dataset:
    name: str
    split: str
    items: tuple[MCQItem, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if not self.split:
            raise ValueError("dataset split must be non-empty")
        seen: set[str] = set()
        for item in self.items:
            if item.id in seen:
                raise DuplicateId(f"duplicate item id {item.id!r} in dataset {self.name}")
            seen.add(item.id)


def sample_items(dataset: Dataset, limit: int, seed: int = 0) -> Dataset:
    """Deterministic subsample of ``limit`` items, preserving dataset order."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit >= len(dataset.items):
        return dataset
    picked = sorted(Random(seed).sample(range(len(dataset.items)), limit))
    return Dataset(
        name=dataset.name,
        split=dataset.split,
        items=tuple(dataset.items[i] for i in picked),
    )


def _normalize_keys(
    pairs: Sequence[tuple[str, str]], answer: str, where: str
) -> tuple[tuple[tuple[str, str], ...], str]:
    """Map all-digit choice labels ("1".. ) onto letters, answer included."""
    labels = [label for label, _ in pairs]
    if labels and all(label.isdigit() for label in labels):
        if any(not 1 <= int(label) <= len(LETTERS) for label in labels):
            raise FormatError(f"{where}: digit label out of range in {labels}")
        mapping = {label: LETTERS[int(label) - 1] for label in labels}
        if answer not in mapping:
            raise FormatError(f"{where}: answer {answer!r} not among labels {labels}")
        return tuple((mapping[label], text) for label, text in pairs), mapping[answer]
    return tuple(pairs), answer


def load_dataset(
    path: str | Path,
    format: str,
    *,
    split: str = "test",
) -> Dataset:
    """Load and normalize a dataset file into lettered multiple-choice items."""
    path = Path(path)
    if format not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format {format!r}; expected one of {DATASET_FORMATS}")
    if format == "mmlu_csv":
        default_name = _subject_from_filename(path)
        rows = _read_mmlu_csv(path, default_name)
    else:
        default_name = path.stem
        rows = (_read_generic_jsonl if format == "generic_jsonl" else _read_arc_jsonl)(path)
    items: list[MCQItem] = []
    seen: set[str] = set()
    for where, item_id, question, pairs, answer, subject in rows:
        pairs, answer = _normalize_keys(pairs, answer, where)
        if item_id in seen:
            raise DuplicateId(f"{where}: duplicate item id {item_id!r}")
        seen.add(item_id)
        try:
            items.append(MCQItem(item_id, question, pairs, answer, subject))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
    if not items:
        logger.warning("dataset file %s contains no items", path)
    return Dataset(name=default_name, split=split, items=tuple(items))


# Each reader yields (where, id, question, [(label, text), ...], answer, subject)
# per item, where is "path:line"; load_dataset builds and checks the items.


def _read_generic_jsonl(path: Path):
    for where, raw in _jsonl_lines(path):
        if "answer" not in raw:
            raise MissingAnswerKey(f"{where}: item has no 'answer' field")
        try:
            item_id, question, choices = _text(raw["id"], "id", where), raw["question"], raw["choices"]
        except KeyError as exc:
            raise FormatError(f"{where}: missing field {exc}") from None
        if not isinstance(choices, dict):
            raise FormatError(f"{where}: 'choices' must be an object mapping letters to text")
        pairs = [(k, _text(v, f"choice {k!r}", where)) for k, v in choices.items()]
        yield where, item_id, question, pairs, _text(raw["answer"], "answer", where), raw.get("subject")


def _read_arc_jsonl(path: Path):
    for where, raw in _jsonl_lines(path):
        if "answerKey" not in raw:
            raise MissingAnswerKey(f"{where}: item has no 'answerKey' field")
        try:
            item_id = _text(raw["id"], "id", where)
            stem = raw["question"]["stem"]
            choice_list = raw["question"]["choices"]
            answer = _text(raw["answerKey"], "answerKey", where)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{where}: not in ARC layout ({exc})") from None
        try:
            pairs = [(choice["label"], choice["text"]) for choice in choice_list]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{where}: malformed choice entry ({exc})") from None
        pairs = [(_text(label, "choice label", where), _text(text, "choice text", where)) for label, text in pairs]
        yield where, item_id, stem, pairs, answer, None


def _text(value, what: str, where: str) -> str:
    """A JSON id, choice or answer as text: a string as it is, a number as its digits."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise FormatError(f"{where}: {what} must be a string or a number, got {json.dumps(value)[:60]}")
    return str(value)


def _read_mmlu_csv(path: Path, subject: str):
    import csv  # loaded only for the mmlu_csv format

    with open_utf8(path, newline="") as handle:
        for rowno, row in enumerate(csv.reader(handle), start=1):
            where = f"{path}:{rowno}"
            if not row:
                continue
            if len(row) != 6:
                raise FormatError(f"{where}: expected 6 columns, got {len(row)}")
            question, *texts, answer = row
            answer = answer.strip()
            if not answer:
                raise MissingAnswerKey(f"{where}: empty answer column")
            pairs = [(LETTERS[i], text) for i, text in enumerate(texts)]
            yield where, f"{subject}-{rowno:04d}", question, pairs, answer, subject


def _jsonl_lines(path: Path):
    """(``path:line``, object) for each non-blank line; any other JSON value is rejected."""
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: invalid JSON ({exc})") from None
            if not isinstance(raw, dict):
                raise FormatError(f"{where}: expected a JSON object, got {type(raw).__name__}")
            yield where, raw


def _subject_from_filename(path: Path) -> str:
    stem = path.stem
    for suffix in ("_test", "_dev", "_val", "_train"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


def pose_question(prompt: str, item: MCQItem, template: PromptTemplate | None = None) -> str:
    """The solver input: the rendered ``prompt``, a newline, then ``item`` filled into ``template``."""
    choices = "\n".join(f"{letter}. {text}" for letter, text in item.choices)
    block = (template or default_template("question")).fill(QUESTION=item.question, CHOICES=choices)
    return f"{prompt}\n{block}"


def extract_answer(response: str, valid: frozenset[str] | set[str]) -> str | None:
    """Read the predicted choice letter out of a solver response.

    Rules, in priority order; the first hit wins:
      1. the first line of the form ``Answer: L`` whose letter is valid
         (case-insensitive, optional parentheses and end punctuation);
      2. the whole response is a single valid letter with optional trailing
         punctuation (exact case);
      3. the first standalone valid letter token in the first non-empty line
         (exact case, so a lowercase article "a" never counts).

    Returns None when no rule applies. Never returns a letter outside
    ``valid``.
    """
    lines = response.splitlines()
    for line in lines:
        match = _ANSWER_LINE_RE.match(line)
        if match and match.group(1).upper() in valid:
            return match.group(1).upper()
    match = _BARE_LETTER_RE.fullmatch(response.strip())
    if match and match.group(1) in valid:
        return match.group(1)
    for line in lines:
        if not line.strip():
            continue
        for match in _STANDALONE_RE.finditer(line):
            if match.group(1) in valid:
                return match.group(1)
        break
    return None


@dataclass(frozen=True)
class ItemRecord:
    """Outcome of one evaluated item."""

    id: str
    raw_response: str
    extracted: str | None
    gold: str
    correct: bool
    subject: str | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "raw_response": self.raw_response,
            "extracted": self.extracted,
            "gold": self.gold,
            "correct": self.correct,
            "subject": self.subject,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ItemRecord":
        """Read a record back, rejecting what :func:`evaluate` cannot have written; a
        field with a default may be missing and takes it."""
        record = cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING})
        for name in ("id", "raw_response", "gold", "note"):
            if not isinstance(getattr(record, name), str):
                raise ValueError(f"record field {name!r} must be a string")
        for name in ("extracted", "subject"):
            if getattr(record, name) is not None and not isinstance(getattr(record, name), str):
                raise ValueError(f"record field {name!r} must be a string or null")
        if record.correct is not (record.extracted == record.gold):
            raise ValueError(
                f"record {record.id!r}: 'correct' is {record.correct!r} for extracted {record.extracted!r}, gold {record.gold!r}"
            )
        return record


@dataclass(frozen=True)
class EvalResult:
    """Per-item records plus the exact-match counts read from them."""

    dataset_name: str
    split: str
    prompt_digest: str
    records: tuple[ItemRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def correct(self) -> int:
        return sum(record.correct for record in self.records)

    @property
    def unparseable(self) -> int:
        return sum(record.extracted is None for record in self.records)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.records else 0.0

    @property
    def ids_digest(self) -> str:
        blob = json.dumps(sorted(record.id for record in self.records), ensure_ascii=False, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def per_subject(self) -> dict[str, tuple[int, int, float]]:
        """subject -> (correct, total, accuracy), only for items with subjects."""
        counts: dict[str, list[int]] = {}
        for record in self.records:
            if record.subject is None:
                continue
            bucket = counts.setdefault(record.subject, [0, 0])
            bucket[0] += int(record.correct)
            bucket[1] += 1
        return {
            subject: (correct, total, correct / total)
            for subject, (correct, total) in sorted(counts.items())
        }

    def to_dict(self) -> dict:
        data = {
            "dataset_name": self.dataset_name,
            "split": self.split,
            "prompt_digest": self.prompt_digest,
            "accuracy": self.accuracy,
            "total": self.total,
            "correct": self.correct,
            "unparseable": self.unparseable,
            "records": [record.to_dict() for record in self.records],
        }
        per_subject = self.per_subject
        if per_subject:
            data["per_subject"] = {
                subject: {"correct": c, "total": t, "accuracy": a}
                for subject, (c, t, a) in per_subject.items()
            }
            # the unweighted mean of the per-subject accuracies
            data["macro_accuracy"] = sum(a for _, _, a in per_subject.values()) / len(per_subject)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvalResult":
        """Read a result back, rejecting what :func:`evaluate` cannot have written."""
        for name in ("dataset_name", "split", "prompt_digest"):
            if not isinstance(data[name], str):
                raise ValueError(f"result field {name!r} must be a string")
        records = tuple(ItemRecord.from_dict(r) for r in data["records"])
        if len({record.id for record in records}) < len(records):
            raise ValueError("record ids must be unique")
        return cls(data["dataset_name"], data["split"], data["prompt_digest"], records)


def evaluate(
    state: PromptState,
    dataset: Dataset,
    solver: CriticBackend,
    *,
    concurrency: int = 1,
    template: PromptTemplate | None = None,
) -> EvalResult:
    """Score a prompt on a dataset with exact-match accuracy.

    Per-item solver failures are recorded as unparseable (hence incorrect)
    with a note, and logged as their records are read in dataset order. Once
    failures exceed half the dataset, counted in dataset order, the run
    aborts with the partial result attached, so the abort point is the same
    at any ``concurrency``. Above width 1, once more than half the items have
    failed in whatever order they finished, an item past the last failed one
    is not sent to the solver: the records through that failure already
    abort the run, so its record would never be read. Any other error, such
    as a replay miss, aborts at its item with the records before it. Record
    order follows dataset order.
    """
    if not dataset.items:
        raise DatasetError(f"dataset {dataset.name} has no items")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    prompt = render_prompt(state)  # the same for every item
    items, total = dataset.items, len(dataset.items)
    lock = threading.Lock()
    finished_failures, last_failure = 0, -1  # in any order, for the skip

    def solve(index: int) -> ItemRecord | None:
        nonlocal finished_failures, last_failure
        with lock:
            if finished_failures * 2 > total and index > last_failure:
                return None
        item = items[index]
        turn = ChatTurn("user", pose_question(prompt, item, template))
        try:
            response, note = solver.complete((turn,), SOLVER_PARAMS), ""
        except BackendError as exc:
            with lock:
                finished_failures += 1
                last_failure = max(last_failure, index)
            response, note = "", f"solver failed: {exc}"
        extracted = extract_answer(response, item.valid_letters)  # None for a failure's ""
        return ItemRecord(
            id=item.id,
            raw_response=response,
            extracted=extracted,
            gold=item.answer_key,
            correct=extracted == item.answer_key,
            subject=item.subject,
            note=note,
        )

    failed, read = 0, []
    try:
        with fan_out(solve, range(total), concurrency) as records:
            for record in records:
                read.append(record)
                if record.note:
                    failed += 1
                    logger.warning("item %s: %s", record.id, record.note)
                    if failed * 2 > total:
                        break
    except Exception as exc:  # a replay that diverged, say; its item is the next unread one
        partial = EvalResult(dataset.name, dataset.split, state.digest, tuple(read))
        raise EvaluationAborted(f"run aborted at item {items[len(read)].id}: {exc}", partial) from exc
    result = EvalResult(dataset.name, dataset.split, state.digest, tuple(read))
    if failed * 2 > total:
        raise EvaluationAborted(f"{failed} of {total} items failed; aborting", result)
    return result


@dataclass(frozen=True)
class Comparison:
    """Accuracy table for runs over the same item set.

    The first row is the baseline; every later row carries its delta against
    it, in percentage points.
    """

    rows: tuple[tuple[str, "EvalResult"], ...] = field(repr=False)
    _KEYS = ("label", "accuracy", "accuracy_pct", "delta_pct", "unparseable", "total")

    def __post_init__(self) -> None:
        if len(self.rows) < 2:
            raise ValueError("comparison needs at least two results")
        baseline_digest = self.rows[0][1].ids_digest
        for label, result in self.rows[1:]:
            if result.ids_digest != baseline_digest:
                raise DatasetMismatch(
                    f"result {label!r} covers a different item set than the baseline"
                )

    def _cells(self) -> list[tuple]:
        """One row of ``_KEYS`` values per result; the baseline's delta is empty."""
        base = self.rows[0][1].accuracy
        return [
            (
                label,
                result.accuracy,
                f"{result.accuracy * 100:.2f}",
                f"{(result.accuracy - base) * 100:+.2f}" if index else "",
                result.unparseable,
                result.total,
            )
            for index, (label, result) in enumerate(self.rows)
        ]

    def to_dict(self) -> dict:
        rows = [dict(zip(self._KEYS, cells)) for cells in self._cells()]
        return {"dataset": self.rows[0][1].dataset_name, "rows": rows}

    def to_text(self) -> str:
        table = [("label", "accuracy", "delta", "unparseable")]
        table += [
            (label, pct, delta, f"{unparseable}/{total}")
            for label, _, pct, delta, unparseable, total in self._cells()
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in table
        )
