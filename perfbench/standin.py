"""Latency-injecting stand-in for the model behind every mpo backend role.

One class serves the three roles. It tells them apart by the marker text
that ends each built-in template, sleeps a fixed latency per call, counts
calls by role and request tokens, and keeps its own CPU time apart so that
it is never mistaken for program time.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Mapping, Sequence

from mpo import ChatTurn, CriticBackend, GenerationParams, token_count

import gen

# Each built-in template ends with one of these lines.
ROLE_MARKERS = (
    ("critique", "Propose concrete improvements"),
    ("consolidate", "Remove duplicated"),
    ("solve", "Answer with the letter"),
)
_TAIL = 400


class UnknownRequest(Exception):
    """A request that matches no template marker. Not a BackendError, so the
    program cannot absorb it as a per-section failure."""


def role_of(text: str) -> str:
    tail = text[-_TAIL:]
    for role, marker in ROLE_MARKERS:
        if marker in tail:
            return role
    raise UnknownRequest(f"request matches no template marker: {tail[-80:]!r}")


def _between(text: str, start: str, end: str) -> str:
    begin = text.index(start) + len(start)
    return text[begin:text.index(end, begin)]


class StandIn(CriticBackend):
    """Critic and solver stand-in.

    ``critique(section_name, content)`` answers critique calls;
    consolidation calls get the section without repeated lines; solve calls
    are answered from ``replies``, keyed by the question marker that opens
    the question block. The solver never scans the whole posed text: the
    rendered prompt in front of the question is the same for every item, so
    its token count is taken once and reused.
    """

    name = "standin"
    model = "seeded"

    def __init__(
        self,
        latency: float,
        critique: Callable[[str, str], str] | None = None,
        replies: Mapping[str, str] | None = None,
    ) -> None:
        self.latency = latency
        self._critique = critique
        self._replies = replies or {}
        self._lock = threading.Lock()
        self._prefix: tuple[str, int] = ("", 0)
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Counter[str] = Counter()
            self.tokens = 0
            self.own_s = 0.0

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        started = time.perf_counter()
        text = turns[-1].content
        role = role_of(text)
        tokens = sum(token_count(turn.content) for turn in turns[:-1])
        if role == "critique":
            name = _between(text, "Section name: ", "\n")
            content = _between(text, "Current section content:\n", "\n\nRest of the prompt, for context:")
            reply = self._critique(name, content)
            tokens += token_count(text)
        elif role == "consolidate":
            reply = gen.consolidated(_between(text, "Section content:\n", "\n\nRemove duplicated"))
            tokens += token_count(text)
        else:
            split = text.rindex("\nQ", max(0, len(text) - 4 * _TAIL)) + 1
            reply = self._replies[text[split:text.index(":", split)]]
            tokens += self._prompt_tokens(text, split) + token_count(text[split:])
        own = time.perf_counter() - started
        with self._lock:
            self.calls[role] += 1
            self.tokens += tokens
            self.own_s += own
        if self.latency:
            time.sleep(self.latency)
        return reply

    def _prompt_tokens(self, text: str, split: int) -> int:
        prefix, count = self._prefix
        if len(prefix) != split or not text.startswith(prefix):
            prefix = text[:split]
            count = token_count(prefix)
            self._prefix = (prefix, count)
        return count
