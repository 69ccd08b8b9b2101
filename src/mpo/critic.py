"""Section-level critiques and consolidation.

A critique call shows the critic one section plus the rest of the prompt and
asks for improvement directives scoped to that section alone. The raw reply
is parsed into a list of single-line directives; an empty reply means the
critic had nothing to change, which downstream code treats as "leave the
section alone".
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .backends import (
    CONSOLIDATION_PARAMS,
    GRADIENT_PARAMS,
    ChatTurn,
    CriticBackend,
    GenerationParams,
)
from .schema import TAG_STRING_RE, Provenance, Section, SectionKind, strip_code_fences
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)

# Bullet or numbered-list prefix, as critics often decorate their directives.
LIST_MARKER = re.compile(r"^\s*(?:[-*]|\d+[.)])\s*")


class ConsolidationRejected(Exception):
    """The consolidation reply was unusable (e.g. it contained section tags)."""


@dataclass(frozen=True)
class TextualGradient:
    """Improvement directives for exactly one section.

    An empty ``directives`` tuple is the explicit "no change" signal; apply
    and consolidation steps skip the section entirely when they see it.
    """

    target: SectionKind
    directives: tuple[str, ...]
    critic_identity: str = ""

    def __post_init__(self) -> None:
        for directive in self.directives:
            if not directive.strip():
                raise ValueError("directives must be non-empty")
            if "\n" in directive:
                raise ValueError("directives must be single lines")

    @property
    def is_empty(self) -> bool:
        return not self.directives

    @classmethod
    def empty(cls, target: SectionKind, critic_identity: str = "") -> "TextualGradient":
        return cls(target=target, directives=(), critic_identity=critic_identity)


def parse_directives(text: str) -> tuple[str, ...]:
    """Split a critic reply into stripped, marker-free directive lines."""
    directives = []
    for line in strip_code_fences(text).splitlines():
        line = LIST_MARKER.sub("", line, count=1).strip()
        if line:
            directives.append(line)
    return tuple(directives)


def request_gradient(
    backend: CriticBackend,
    section: Section,
    context: str,
    template: PromptTemplate | None = None,
    params: GenerationParams = GRADIENT_PARAMS,
) -> TextualGradient:
    """Ask the critic for directives scoped to ``section``.

    ``context`` is the rendered remainder of the prompt, so the critic sees
    what the other sections already cover without being invited to edit them.
    """
    template = template or default_template("gradient")
    filled = template.fill(
        SECTION_KIND=section.kind.display_name,
        SECTION_CONTENT=section.content,
        CONTEXT=context,
    )
    response = backend.complete((ChatTurn("user", filled),), params)
    return TextualGradient(
        target=section.kind,
        directives=parse_directives(response),
        critic_identity=backend.identity,
    )


def consolidate(
    backend: CriticBackend,
    section: Section,
    template: PromptTemplate | None = None,
    params: GenerationParams = CONSOLIDATION_PARAMS,
) -> Section:
    """Ask the critic to drop duplicated instructions from one section.

    Returns the cleaned section. A reply that contains section tags would
    corrupt the prompt structure, so it is rejected instead of applied.
    """
    template = template or default_template("consolidate")
    filled = template.fill(
        SECTION_KIND=section.kind.display_name,
        SECTION_CONTENT=section.content,
    )
    response = strip_code_fences(backend.complete((ChatTurn("user", filled),), params))
    if TAG_STRING_RE.search(response):
        raise ConsolidationRejected(
            f"consolidation reply for {section.kind.display_name} contains section tags"
        )
    if section.content and not response.strip():
        # Dropping duplicates must never erase the whole section.
        raise ConsolidationRejected(
            f"consolidation reply for {section.kind.display_name} is empty"
        )
    return Section(kind=section.kind, content=response, provenance=Provenance.REFINED)
