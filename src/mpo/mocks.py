"""Deterministic stand-ins for the critic, solver, and extractor roles.

These run the full pipeline offline: same input text, same reply, every
time. The critic answers by the purpose a call is made for, whatever the
template says, the solver hash-picks among the offered choices, and the
extractor routes lines to sections with plain heading rules. A request's
text is read through the template that wrote it, the built-in or a given one.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .backends import _PURPOSE, ChatTurn, CriticBackend, GenerationParams, sha256
from .schema import SectionKind
from .templating import PromptTemplate, default_template

_CHOICE_LINE_RE = re.compile(r"^([A-Z])\. ", re.MULTILINE)
_LIST_PREFIX_RE = re.compile(r"^\s*(?:[-*]|\d+[.)])\s")

_DEFAULT_DIRECTIVES: dict[SectionKind, tuple[str, ...]] = {
    SectionKind.SYSTEM_ROLE: ("State the assistant's area of expertise in one sentence.",),
    SectionKind.RELEVANT_CONTEXT: ("Mention that questions may come from any subject area.",),
    SectionKind.TASK_DETAILS: ("Ask for the single best answer to each question.",),
    SectionKind.CONSTRAINTS: ("Require the reply to contain only the chosen answer letter.",),
    SectionKind.OUTPUT_FORMAT: (
        "Require the final line to follow the pattern 'Answer: X' where X is the letter.",
    ),
}


class MockCritic(CriticBackend):
    """Fixed-rule critic that tells its calls apart by purpose (see :func:`~mpo.backends.call_for`).

    ``critique:<kind>@i`` gets one bulleted directive per section kind (override
    per kind via ``directives``; an empty tuple means "reply nothing", which the
    loop reads as no change). ``consolidate:<kind>@i`` gets the section content
    with exact duplicate lines dropped. ``rewrite@i`` echoes the prompt back
    unchanged. Any other call, one with no purpose, or a request that its
    template (``templates[name]`` or the built-in) did not fill, gets ``""``.
    """

    name = "mock"
    model = "fixed-rules"

    def __init__(
        self,
        directives: Mapping[SectionKind, tuple[str, ...]] | None = None,
        templates: Mapping[str, PromptTemplate] | None = None,
    ) -> None:
        table = {**_DEFAULT_DIRECTIVES, **(directives or {})}
        self._directives = {kind.value: lines for kind, lines in table.items()}  # by the name a purpose gives
        self._templates = {name: (templates or {}).get(name) or default_template(name) for name in ("consolidate", "rewrite")}

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        task, _, kind = (_PURPOSE.get() or "").partition("@")[0].partition(":")
        if task == "critique" and kind in self._directives:
            return "\n".join(f"- {directive}" for directive in self._directives[kind])
        if task == "consolidate" and kind in self._directives and (values := self._templates[task].values(turns[-1].content)):
            lines = values["SECTION_CONTENT"].splitlines()  # each non-blank line once, where it first shows
            return "\n".join(line for i, line in enumerate(lines) if not line.strip() or line not in lines[:i])
        if task == "rewrite" and (values := self._templates[task].values(turns[-1].content)):
            return values["PROMPT"]
        return ""


class MockSolver(CriticBackend):
    """Answers multiple-choice questions by hashing the posed text.

    The pick is uniform over the offered letters and changes whenever the
    posed text changes, so different prompts genuinely score differently.
    """

    name = "mock"
    model = "hash-pick"

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        text = turns[-1].content
        letters = _CHOICE_LINE_RE.findall(text)
        if not letters:
            return "Answer: A"
        digest = int(sha256(text.encode("utf-8")).hexdigest(), 16)
        return f"Answer: {letters[digest % len(letters)]}"


# Heading keyword -> section routing, checked in order; first match wins.
# "task" goes last because it shows up inside otherwise-specific headings.
_HEADING_ROUTES: tuple[tuple[tuple[str, ...], SectionKind], ...] = (
    (("role", "persona"), SectionKind.SYSTEM_ROLE),
    (("context", "background"), SectionKind.RELEVANT_CONTEXT),
    (("output", "format", "structure"), SectionKind.OUTPUT_FORMAT),
    (("constraint", "rule", "instruction"), SectionKind.CONSTRAINTS),
    (("task",), SectionKind.TASK_DETAILS),
)


class HeadingRuleExtractor(CriticBackend):
    """Splits an unstructured prompt into sections by heading keywords.

    A heading is a non-list line with a colon whose pre-colon prefix is at
    most ten words and names a known topic (role, context, output, rules,
    tasks). The heading line itself is dropped; anything after its colon and
    every following line lands in the matched section. Text before the first
    heading is treated as context. Blank lines are dropped, so each section
    comes out as one contiguous block even when its lines were gathered from
    separate parts of the source: the prompt the decompose template filled in,
    or the whole request if that template did not fill it. Output is the tagged
    wire format, so the result always parses.
    """

    name = "mock"
    model = "heading-rules"

    def __init__(self, templates: Mapping[str, PromptTemplate] | None = None) -> None:
        self._template = (templates or {}).get("decompose") or default_template("decompose")

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        values = self._template.values(turns[-1].content)
        source = values["PROMPT"] if values else turns[-1].content
        buckets: dict[SectionKind, list[str]] = {kind: [] for kind in SectionKind}
        target = SectionKind.RELEVANT_CONTEXT
        for line in source.splitlines():
            if not line.strip():
                continue
            routed = _route_heading(line)
            if routed is None:
                buckets[target].append(line)
                continue
            target, inline = routed
            if inline:
                buckets[target].append(inline)
        blocks = []
        for kind in SectionKind:
            content = "\n".join(buckets[kind]).strip()
            blocks.append(f"<{kind.display_name}>\n{content}" if content else f"<{kind.display_name}>")
        return "\n\n".join(blocks) + "\n"


def _route_heading(line: str) -> tuple[SectionKind, str] | None:
    if _LIST_PREFIX_RE.match(line) or ":" not in line:
        return None
    prefix, _, rest = line.partition(":")
    words = prefix.lower().split()
    if not words or len(words) > 10:
        return None
    for keywords, kind in _HEADING_ROUTES:
        if any(any(word.startswith(keyword) for word in words) for keyword in keywords):
            return kind, rest.strip()
    return None

