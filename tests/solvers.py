"""Scripted backends: the stand-in that answers from a constant or a callable,
solvers keyed on the question text inside the posed prompt, the call hook
that stands in for every backend a command builds, a recorder that reads back
the records it wrote, the runner for a fresh interpreter, and the comparison
of the artifacts two runs wrote."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from collections.abc import Callable, Container, Iterator, Sequence
from pathlib import Path

from mpo import BackendError, ChatTurn, CriticBackend, Dataset, GenerationParams, RecordingBackend, Transcript
from mpo import cli


class ScriptedBackend(CriticBackend):
    """Deterministic backend driven by a constant string or a callable.

    The callable receives ``(turns, params)`` and returns the response text;
    it may raise :class:`BackendError` to simulate failures.
    """

    def __init__(
        self,
        script: str | Callable[[Sequence[ChatTurn], GenerationParams], str],
        name: str = "scripted",
        model: str = "script",
    ) -> None:
        self._script = script
        self.name = name
        self.model = model

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        if callable(self._script):
            return self._script(turns, params)
        return self._script


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


@contextlib.contextmanager
def hooked_backends(hook: Callable[..., str] | None = None) -> Iterator[tuple[list, list]]:
    """Wraps ``cli.build_backend``, the one place a command gets its backend, for
    the block. Each call to a backend it builds gets a number, counted from 1
    across the block, and returns ``hook(number, inner, turns, params)``, or
    ``inner``'s reply without a hook; the wrapper keeps ``inner``'s name and model.
    Yields ``(builds, calls)``: each build's ``(mode, role)`` and each call's number."""
    build, builds, calls, lock = cli.build_backend, [], [], threading.Lock()

    def built(config, role):
        inner = build(config, role)
        builds.append((config.mode, role))

        def complete(turns, params):
            with lock:
                number = len(calls) + 1
                calls.append(number)
            return inner.complete(turns, params) if hook is None else hook(number, inner, turns, params)

        return ScriptedBackend(complete, name=inner.name, model=inner.model)

    cli.build_backend = built
    try:
        yield builds, calls
    finally:
        cli.build_backend = build


def fresh_python(*args: str, env: dict[str, str] | None = None, timeout: float = 120) -> subprocess.CompletedProcess:
    """Runs ``python *args`` in a fresh interpreter that imports this mpo and
    these test helpers, with ``env`` laid over this process's environment, and
    returns the finished process, its output captured as text."""
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def counter(number: int, inner: CriticBackend, turns, params) -> str:
    """``inner``'s reply with the call's number, from 0, as a last line of its own:
    every call is answered differently, equal requests included, so a replay that
    serves one call another call's record writes different artifacts."""
    return f"{inner.complete(turns, params)}\nCall {number - 1}."


def refused(numbers: Container[int]) -> Callable[..., str]:
    """A hook that raises BackendError on the calls numbered in ``numbers``."""

    def hook(number, inner, turns, params):
        if number in numbers:
            raise BackendError(f"call {number} refused")
        return inner.complete(turns, params)

    return hook


def masked_identity(data: bytes) -> bytes:
    """``data`` with every ``critic_identity`` blanked: a replay names itself as the critic."""
    return re.sub(rb'"critic_identity": "[^"]*"', b'"critic_identity": ""', data)


def assert_same_run(expected: Path, *runs: Path, masked: bool = False) -> None:
    """Each of ``runs`` wrote exactly the artifacts ``expected`` holds, every file
    but ``transcript.jsonl``, byte for byte; with ``masked``, both sides are
    compared through :func:`masked_identity`."""

    def artifacts(run: Path) -> dict[str, bytes]:
        files = [path for path in run.iterdir() if path.name != "transcript.jsonl"]
        return {path.name: masked_identity(path.read_bytes()) if masked else path.read_bytes() for path in files}

    want = artifacts(expected)
    assert want, f"{expected} holds no artifact"
    for run in runs:
        got = artifacts(run)
        assert got.keys() == want.keys(), run.name
        for name, data in want.items():
            assert got[name] == data, (run.name, name)


class Recorder(RecordingBackend):
    """A :class:`RecordingBackend` whose transcript streams into memory."""

    def __init__(self, inner: CriticBackend) -> None:
        self.stream = io.StringIO()
        super().__init__(inner, Transcript(self.stream))

    def records(self) -> list[dict]:
        """The records written so far, in call order. Lines are split at "\\n"
        only: a line may hold a raw U+2028 or \\x85, where str.splitlines breaks."""
        return [json.loads(line) for line in self.stream.getvalue().split("\n") if line]
