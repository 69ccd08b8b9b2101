"""Scripted backends: the stand-in that answers from a constant or a callable,
solvers keyed on the question text inside the posed prompt, the call hook
that stands in for every backend a command builds, the runner for a fresh
interpreter, the comparison of the artifacts two runs wrote, and the one way
a test builds, records, reorders or reads JSON Lines."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from collections.abc import Callable, Container, Iterator, Sequence
from pathlib import Path

from mpo import BackendError, ChatTurn, CriticBackend, Dataset, GenerationParams, RecordingBackend, Transcript, request_digest
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
    returns the finished process, its output captured as UTF-8 text."""
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True,
        encoding="utf-8",
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


def record(
    turns: Sequence[ChatTurn] = (ChatTurn("user", "hello"),), params: GenerationParams = GenerationParams(), /, **keys
) -> dict:
    """A valid transcript record of ``turns`` and ``params`` (by default one user
    turn "hello" and the default params) in the layout :class:`RecordingBackend`
    writes, with ``"response": "out"`` and a fixed timestamp. Each of ``keys``,
    ``params`` too, replaces or adds its key; the value ``...`` drops it."""
    built = {
        "request_digest": request_digest(turns, params),
        "request": [turn.to_dict() for turn in turns],
        "params": params.to_dict(),
        "response": "out",
        "timestamp": "2024-01-01T00:00:00+00:00",
        **keys,
    }
    return {key: value for key, value in built.items() if value is not ...}


def line(record: dict) -> str:
    """``record`` as its JSON line, the form :meth:`Transcript.append` takes."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def _lines(text: str) -> list[str]:
    """The lines of JSON Lines text, each ended by "\\n" and split there only: a
    line may hold a raw U+2028 or \\x85, where str.splitlines breaks. A blank
    line is kept, so it fails as a record."""
    assert text.endswith("\n") or not text, text[-80:]
    return text.split("\n")[:-1]


def jsonl(path: Path) -> list[dict]:
    """The records of the JSON Lines file at ``path``, read as UTF-8, one per line."""
    return [json.loads(each) for each in _lines(Path(path).read_bytes().decode("utf-8"))]


def reordered(transcript: Path, order: str, dest: Path) -> Path:
    """``dest``, written with ``transcript``'s lines in ``order``: ``"recorded"``,
    ``"reversed"``, or ``"shuffled"`` by ``random.Random(0)``."""
    lines = [each + "\n" for each in _lines(Path(transcript).read_bytes().decode("utf-8"))]
    if order == "reversed":
        lines.reverse()
    elif order == "shuffled":
        random.Random(0).shuffle(lines)
    else:
        assert order == "recorded", order
    Path(dest).write_bytes("".join(lines).encode("utf-8"))
    return Path(dest)


def assert_redumps(path: Path) -> list[dict]:
    """The records :meth:`Transcript.load` reads from ``path``, each dumped as its
    :func:`line`, are the file's bytes; returns those records."""
    records = Transcript.load(path)
    assert "".join(map(line, records)).encode("utf-8") == Path(path).read_bytes()
    return records


class Recorder(RecordingBackend):
    """A :class:`RecordingBackend` whose transcript streams into memory: the one
    in-memory recording."""

    def __init__(self, inner: CriticBackend) -> None:
        self.stream = io.StringIO()
        super().__init__(inner, Transcript(self.stream))

    def records(self) -> list[dict]:
        """The records written so far, in call order, split as :func:`jsonl` splits."""
        return [json.loads(each) for each in _lines(self.stream.getvalue())]

    def write(self, path: Path) -> Path:
        """``path``, written by :meth:`Transcript.save`, the one writer of a transcript in memory."""
        self.store.save(path)
        return Path(path)
