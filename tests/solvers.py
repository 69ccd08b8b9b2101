"""Scripted backends: solvers keyed on the question text inside the posed
prompt, a wrapper that answers every call differently, and a recorder that
reads back the records it wrote."""

from __future__ import annotations

import io
import itertools
import json
import threading

from mpo import BackendError, CriticBackend, Dataset, RecordingBackend, ScriptedBackend, Transcript


def gold_solver(dataset: Dataset) -> ScriptedBackend:
    """Answers every posed question with its gold letter."""
    by_question = {item.question: item.answer_key for item in dataset.items}

    def reply(turns, params):
        posed = turns[-1].content
        for question, answer in by_question.items():
            if question in posed:
                return f"Answer: {answer}"
        raise BackendError("posed text matched no known question")

    return ScriptedBackend(reply, name="gold", model="script")


def scored_solver(dataset: Dataset, correct_ids: set[str]) -> ScriptedBackend:
    """Gold answer for ``correct_ids``, a different valid letter otherwise."""
    by_question = {item.question: item for item in dataset.items}

    def reply(turns, params):
        posed = turns[-1].content
        for question, item in by_question.items():
            if question in posed:
                if item.id in correct_ids:
                    return f"Answer: {item.answer_key}"
                wrong = next(l for l in item.letters if l != item.answer_key)
                return f"Answer: {wrong}"
        raise BackendError("posed text matched no known question")

    return ScriptedBackend(reply, name="scored", model="script")


def counter_backend(inner: CriticBackend) -> ScriptedBackend:
    """``inner``'s reply with the call's number as a last line of its own: every
    call is answered differently, equal requests included, so a replay that
    serves one call another call's record writes different artifacts."""
    calls, lock = itertools.count(), threading.Lock()

    def reply(turns, params):
        with lock:
            number = next(calls)
        return f"{inner.complete(turns, params)}\nCall {number}."

    return ScriptedBackend(reply, name="counter", model=inner.identity)


class Recorder(RecordingBackend):
    """A :class:`RecordingBackend` whose transcript streams into memory."""

    def __init__(self, inner: CriticBackend) -> None:
        self.stream = io.StringIO()
        super().__init__(inner, Transcript(self.stream))

    def records(self) -> list[dict]:
        """The records written so far, in call order. Lines are split at "\\n"
        only: a line may hold a raw U+2028 or \\x85, where str.splitlines breaks."""
        return [json.loads(line) for line in self.stream.getvalue().split("\n") if line]
