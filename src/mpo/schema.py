"""Five-section structured prompt model.

A prompt is held as exactly five sections with fixed roles: system role,
relevant context, task details, constraints, and output format.  The set of
sections and their order never change at runtime; optimization only rewrites
what is inside them.  This module owns the wire format (angle-bracket tags,
one per line), parsing, rendering, and per-section diffing.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class SchemaError(Exception):
    """Base class for structured-prompt errors."""


class DuplicateSectionTag(SchemaError):
    """A section tag appears more than once in the input."""


class MalformedTag(SchemaError):
    """A tag-shaped line is unknown or not closed."""


class UntaggedLeadingContent(SchemaError):
    """Non-blank text appears before the first section tag."""


class TagCollision(SchemaError):
    """Section content contains a schema tag string and would not re-parse."""


class SectionKind(Enum):
    """The five section roles, in canonical order."""

    SYSTEM_ROLE = "system_role"
    RELEVANT_CONTEXT = "relevant_context"
    TASK_DETAILS = "task_details"
    CONSTRAINTS = "constraints"
    OUTPUT_FORMAT = "output_format"

    @property
    def tag(self) -> str:
        """Wire-format tag emitted for this section."""
        return _TAGS[self]

    @property
    def display_name(self) -> str:
        """Human-readable section name used in instructions and reports."""
        return _DISPLAY_NAMES[self]


CANONICAL_ORDER: tuple[SectionKind, ...] = tuple(SectionKind)

_TAGS = {
    SectionKind.SYSTEM_ROLE: "<System Role>",
    SectionKind.RELEVANT_CONTEXT: "<Context>",
    SectionKind.TASK_DETAILS: "<Task>",
    SectionKind.CONSTRAINTS: "<Constraints>",
    SectionKind.OUTPUT_FORMAT: "<Output Format>",
}

_DISPLAY_NAMES = {
    SectionKind.SYSTEM_ROLE: "System Role",
    SectionKind.RELEVANT_CONTEXT: "Relevant Context",
    SectionKind.TASK_DETAILS: "Task Details",
    SectionKind.CONSTRAINTS: "Constraints",
    SectionKind.OUTPUT_FORMAT: "Output Format",
}

# Tag inner names accepted on parse (lowercased, whitespace-collapsed).  The
# canonical tags plus the long-form section names; rendering always emits the
# canonical tag.
_TAG_ALIASES: dict[str, SectionKind] = {
    "system role": SectionKind.SYSTEM_ROLE,
    "context": SectionKind.RELEVANT_CONTEXT,
    "relevant context": SectionKind.RELEVANT_CONTEXT,
    "task": SectionKind.TASK_DETAILS,
    "task details": SectionKind.TASK_DETAILS,
    "constraints": SectionKind.CONSTRAINTS,
    "output format": SectionKind.OUTPUT_FORMAT,
}

# Any recognized tag string, for collision checks inside section content.
TAG_STRING_RE = re.compile(
    "|".join(re.escape(f"<{name}>") for name in _TAG_ALIASES), re.IGNORECASE
)

_TAG_LINE_RE = re.compile(r"^<([^<>]+)>$")


def _parse_tag_line(line: str) -> SectionKind | None:
    """The section a full-line tag opens, or None for a non-tag line."""
    match = _TAG_LINE_RE.match(line)
    if not match:
        return None
    name = " ".join(match.group(1).split()).lower()
    return _TAG_ALIASES.get(name)


class Provenance(Enum):
    """How a section's current content came to be."""

    ORIGINAL = "original"
    INFERRED = "inferred"
    REFINED = "refined"


def check_tags(kind: SectionKind, text: str) -> None:
    """Raise :class:`TagCollision` if ``text`` would not survive as content of
    a ``kind`` section. Both checks look at one line at a time."""
    match = TAG_STRING_RE.search(text)
    if match:
        raise TagCollision(f"{kind.display_name} content contains the tag string {match.group(0)!r}")
    # A line the parser would read as a section tag (so it holds a "<") must
    # not hide in content, or the section would not survive a render/parse cycle.
    if "<" in text:
        for line in text.splitlines():
            if _parse_tag_line(line.strip()) is not None:
                raise TagCollision(
                    f"{kind.display_name} content contains a line that "
                    f"parses as the {line.strip()!r} tag"
                )


@dataclass(frozen=True)
class Section:
    """One section of a structured prompt.

    Content is normalized at construction so that rendering and re-parsing
    are stable: surrounding whitespace is stripped and every line boundary
    becomes "\n".  Content containing any schema tag string is rejected: such
    a section could not be rendered unambiguously.
    """

    kind: SectionKind
    content: str = ""
    provenance: Provenance = Provenance.ORIGINAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "content", "\n".join(self.content.strip().splitlines()))
        check_tags(self.kind, self.content)

    @classmethod
    def of_valid_lines(
        cls, kind: SectionKind, content: str, provenance: Provenance, token_count: int
    ) -> "Section":
        """A section over normalized ``content`` whose every line sat in a valid
        section or passed :func:`check_tags`, and its token count, taken
        without a pass over the content."""
        section = cls.__new__(cls)
        section.__dict__.update(kind=kind, content=content, provenance=provenance, token_count=token_count)
        return section

    @property
    def is_empty(self) -> bool:
        return not self.content

    @functools.cached_property
    def token_count(self) -> int:
        """Whitespace-delimited token count (a model-independent proxy), counted
        once; like the optimizer's ``line_pass``, no field, and not pickled."""
        return len(self.content.split())

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name not in ("token_count", "line_pass")}


@dataclass(frozen=True)
class PromptState:
    """A complete structured prompt at one point in the refinement sequence.

    Holds exactly one section per kind, in canonical order, plus the iteration
    index and the content digest of the predecessor state.
    """

    sections: tuple[Section, ...]
    iteration: int = 0
    parent_digest: str | None = None

    def __post_init__(self) -> None:
        kinds = tuple(section.kind for section in self.sections)
        if kinds != CANONICAL_ORDER:
            raise SchemaError(
                "prompt state must hold exactly the five canonical sections "
                f"in order, got {[k.value for k in kinds]}"
            )
        if self.iteration < 0:
            raise SchemaError("iteration must be non-negative")

    @classmethod
    def from_sections(
        cls,
        sections: Iterable[Section],
        iteration: int = 0,
        parent_digest: str | None = None,
    ) -> "PromptState":
        """Build a state from sections in any order; missing kinds get empty
        sections."""
        by_kind: dict[SectionKind, Section] = {}
        for section in sections:
            if section.kind in by_kind:
                raise SchemaError(f"duplicate section for {section.kind.value}")
            by_kind[section.kind] = section
        ordered = tuple(by_kind.get(kind, Section(kind)) for kind in CANONICAL_ORDER)
        return cls(ordered, iteration, parent_digest)

    def successor(self, sections: tuple[Section, ...]) -> "PromptState":
        """The next state in the digest chain, holding ``sections``. When each
        is this state's own object the rendered prompt is the same, so the
        digest is taken from this state instead of rendered and hashed again."""
        state = PromptState(sections, self.iteration + 1, self.digest)
        if all(new is old for new, old in zip(sections, self.sections)):
            state.__dict__["_digest"] = self.digest
        return state

    def section(self, kind: SectionKind) -> Section:
        return self.sections[CANONICAL_ORDER.index(kind)]

    def contents(self) -> dict[SectionKind, str]:
        return {section.kind: section.content for section in self.sections}

    @property
    def digest(self) -> str:
        """Content digest: SHA-256 of the rendered prompt, computed once; the
        cache is no field, and pickling drops it (``__getstate__``)."""
        if "_digest" not in self.__dict__:
            self.__dict__["_digest"] = hashlib.sha256(render_prompt(self).encode("utf-8")).hexdigest()
        return self.__dict__["_digest"]

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "_digest"}

    @property
    def total_tokens(self) -> int:
        return sum(section.token_count for section in self.sections)


def _looks_like_tag_attempt(line: str) -> bool:
    """True for lines that read as a botched section tag.

    Covers an unclosed known tag (``<Task``), a known tag with trailing text
    on the same line, and any full-line ``<...>`` with an unknown name.
    """
    if _TAG_LINE_RE.match(line):
        return True
    if not line.startswith("<"):
        return False
    inner = line[1:].split(">")[0]
    inner_norm = " ".join(inner.split()).lower()
    return any(name.startswith(inner_norm) or inner_norm.startswith(name)
               for name in _TAG_ALIASES)


def parse_structured_prompt(text: str) -> PromptState:
    """Parse tagged prompt text into a :class:`PromptState` at iteration 0.

    A recognized tag on its own line opens a section that runs until the next
    tag or end of input.  Sections absent from the text get empty content.
    Non-blank text before the first tag is an error, as are duplicate,
    unknown, or unclosed tags in that leading position.  Inside a section
    body, only exact recognized tag lines have structural meaning; everything
    else is content, which keeps parse(render(state)) an identity.
    """
    found: dict[SectionKind, list[str]] = {}
    current: SectionKind | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        kind = _parse_tag_line(line)
        if kind is not None:
            if kind in found:
                raise DuplicateSectionTag(
                    f"line {lineno}: section tag {kind.tag!r} appears more than once"
                )
            found[kind] = []
            current = kind
            continue
        if current is None:
            if not line:
                continue
            if _looks_like_tag_attempt(line):
                raise MalformedTag(f"line {lineno}: unknown or unclosed tag {line!r}")
            raise UntaggedLeadingContent(
                f"line {lineno}: text before the first section tag: {line!r}"
            )
        found[current].append(raw)
    sections = [Section(kind, "\n".join(body)) for kind, body in found.items()]
    return PromptState.from_sections(sections)


def _section_block(section: Section) -> str:
    if section.content:
        return f"{section.kind.tag}\n{section.content}"
    return section.kind.tag


def render_prompt(state: PromptState) -> str:
    """Render a state in the tagged wire format.

    All five tags are emitted in canonical order; empty sections keep their
    tag with an empty body so the structure is always visible.
    """
    return "\n\n".join(_section_block(section) for section in state.sections) + "\n"


def section_context(state: PromptState, kind: SectionKind) -> str:
    """Render every section except ``kind``, in canonical order.

    This is the surrounding-prompt context handed to a critic reviewing one
    section: it shows the rest of the prompt without exposing the section
    under review.
    """
    blocks = [
        _section_block(section) for section in state.sections if section.kind is not kind
    ]
    return "\n\n".join(blocks) + "\n"


def token_count(text: str) -> int:
    """Whitespace-delimited token count."""
    return len(text.split())


def strip_code_fences(text: str) -> str:
    """Drop a single wrapping markdown code fence, if present."""
    lines = text.strip().splitlines()
    if len(lines) >= 2 and lines[0].startswith("```") and lines[-1].strip() == "```":
        return "\n".join(lines[1:-1])
    return text


def strip_tag_strings(text: str) -> str:
    """Replace schema tag strings with their bare names.

    Used when tagged text must be demoted to plain content (for example a
    rewrite response that cannot be parsed as a structured prompt).
    """
    return TAG_STRING_RE.sub(lambda m: m.group(0).strip("<>"), text)


# ---------------------------------------------------------------------------
# Diffing


@dataclass(frozen=True)
class SectionDiff:
    """Line-level diff of one section between two states."""

    kind: SectionKind
    lines: tuple[tuple[str, str], ...]  # (op, line), op in added/removed/unchanged
    token_delta: int

    @property
    def changed(self) -> bool:
        return any(op != "unchanged" for op, _ in self.lines)


@dataclass(frozen=True)
class DiffReport:
    """Per-section diff of two prompt states."""

    sections: tuple[SectionDiff, ...]

    @property
    def changed(self) -> bool:
        return any(section.changed for section in self.sections)

    def to_dict(self) -> dict:
        return {
            "changed": self.changed,
            "sections": {
                diff.kind.value: {
                    "token_delta": diff.token_delta,
                    "lines": [{"op": op, "line": line} for op, line in diff.lines],
                }
                for diff in self.sections
            },
        }

    def to_text(self) -> str:
        marks = {"added": "+", "removed": "-", "unchanged": " "}
        out: list[str] = []
        for diff in self.sections:
            status = "changed" if diff.changed else "unchanged"
            out.append(
                f"== {diff.kind.display_name} ({status}, token delta {diff.token_delta:+d})"
            )
            if diff.changed:
                out.extend(f"{marks[op]} {line}" for op, line in diff.lines)
        return "\n".join(out)


def _diff_lines(a: str, b: str) -> tuple[tuple[str, str], ...]:
    a_lines = a.splitlines()
    b_lines = b.splitlines()
    matcher = difflib.SequenceMatcher(a=a_lines, b=b_lines, autojunk=False)
    out: list[tuple[str, str]] = []
    for op, a0, a1, b0, b1 in matcher.get_opcodes():
        if op == "equal":
            out.extend(("unchanged", line) for line in a_lines[a0:a1])
        else:
            out.extend(("removed", line) for line in a_lines[a0:a1])
            out.extend(("added", line) for line in b_lines[b0:b1])
    return tuple(out)


def diff_states(a: PromptState, b: PromptState) -> DiffReport:
    """Line-level per-section diff from ``a`` to ``b`` with token deltas."""
    sections = []
    for kind in CANONICAL_ORDER:
        old = a.section(kind)
        new = b.section(kind)
        sections.append(
            SectionDiff(
                kind=kind,
                lines=_diff_lines(old.content, new.content),
                token_delta=new.token_count - old.token_count,
            )
        )
    return DiffReport(tuple(sections))
