"""Decomposition of free-form prompts into the five-section schema.

An extractor model reorganizes the prompt under the section tags; the reply
is parsed, each section's provenance is set by whether its lines occur
verbatim in the source, and words the source never used are reported.
"""

from __future__ import annotations

import logging
import re

from .backends import DECOMPOSE_PARAMS, ChatTurn, CriticBackend, call_for
from .schema import (
    TAG_STRING_RE,
    PromptState,
    Provenance,
    SchemaError,
    Section,
    SectionKind,
    parse_structured_prompt,
    strip_code_fences,
)
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)


class EmptyInput(SchemaError):
    """Decomposition was asked to work on an empty prompt."""


class ExtractorFailure(SchemaError):
    """The decomposition backend returned unusable output."""


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text.lower()))


def vocabulary_violations(
    state: PromptState, source: str
) -> dict[SectionKind, tuple[str, ...]]:
    """Words used by the state's sections that do not occur in ``source``.

    Decomposition must not introduce new task information; this is the
    auditable approximation of that rule.
    """
    vocab = _words(source)
    violations: dict[SectionKind, tuple[str, ...]] = {}
    for section in state.sections:
        extra = sorted(_words(section.content) - vocab)
        if extra:
            violations[section.kind] = tuple(extra)
    return violations


def _appears_verbatim(content: str, source: str) -> bool:
    """Every non-blank content line occurs verbatim in the source text."""
    return all(
        line.strip() in source for line in content.splitlines() if line.strip()
    )


def decompose_unstructured(
    text: str,
    extractor: CriticBackend,
    template: PromptTemplate | None = None,
) -> PromptState:
    """Split a free-form prompt into the five-section schema.

    Already-tagged input is parsed directly and the extractor is never
    called.  Otherwise the extractor receives the prompt wrapped in an
    instruction template and must reply with tagged text, which is parsed
    into the state.  Sections whose lines all occur verbatim in the source
    keep ``Provenance.ORIGINAL``; anything else is marked ``INFERRED``.
    Content words absent from the source are logged as a warning, never
    asserted: a live extractor may paraphrase, a deterministic one must not.
    A failing extractor raises its :class:`BackendError`; an unusable reply
    raises :class:`ExtractorFailure`.
    """
    if not text.strip():
        raise EmptyInput("cannot decompose an empty prompt")
    try:
        return parse_structured_prompt(text)
    except SchemaError as exc:
        if TAG_STRING_RE.search(text):
            logger.warning(
                "input contains section tags but is not a well-formed structured "
                "prompt (%s); treating it as free-form text",
                exc,
            )

    template = template or default_template("decompose")
    filled = template.fill(PROMPT=text)
    response = call_for("decompose", extractor.complete, (ChatTurn("user", filled),), DECOMPOSE_PARAMS)
    try:
        parsed = parse_structured_prompt(strip_code_fences(response))
    except SchemaError as exc:
        raise ExtractorFailure(
            f"extractor response is not a tagged prompt: {exc}"
        ) from exc

    sections = []
    for section in parsed.sections:
        provenance = (
            Provenance.ORIGINAL
            if _appears_verbatim(section.content, text)
            else Provenance.INFERRED
        )
        sections.append(Section(section.kind, section.content, provenance))
    state = PromptState.from_sections(sections)

    violations = vocabulary_violations(state, text)
    for kind, extra in violations.items():
        logger.warning(
            "decomposition introduced words absent from the source in %s: %s",
            kind.display_name,
            ", ".join(extra[:10]),
        )
    return state
