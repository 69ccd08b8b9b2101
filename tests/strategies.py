"""Shared hypothesis strategies and seeded fuzz helpers for the test suite."""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from mpo import CANONICAL_ORDER, PromptState, Section, SectionKind, TagCollision

_TEXT_ALPHABET = st.characters(
    codec="utf-8",
    categories=("L", "N", "P", "S", "Zs"),
    include_characters=("\n", " ", "<", ">"),
)


def _constructible(kind: SectionKind, content: str) -> Section | None:
    try:
        return Section(kind, content)
    except TagCollision:
        return None


def sections(kind: SectionKind) -> st.SearchStrategy[Section]:
    """Sections with arbitrary tag-free content, empty included."""
    return (
        st.text(alphabet=_TEXT_ALPHABET, max_size=200)
        .map(lambda content: _constructible(kind, content))
        .filter(lambda section: section is not None)
    )


def prompt_states() -> st.SearchStrategy[PromptState]:
    return st.tuples(*(sections(kind) for kind in CANONICAL_ORDER)).map(
        lambda parts: PromptState(tuple(parts))
    )


_WORDS = (
    "answer", "letter", "single", "keep", "short", "state", "every", "question",
    "format", "line", "only", "avoid", "repeat", "choice", "final", "explain",
)


def seeded_directive(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6))).capitalize() + "."


def seeded_state(rng: random.Random) -> PromptState:
    """Random prompt state from a seeded generator, for fixed-count fuzzing."""
    sections_ = []
    for kind in CANONICAL_ORDER:
        lines = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.2:
                lines.append("")
            else:
                prefix = rng.choice(["", "- ", "1. ", "* "])
                lines.append(prefix + seeded_directive(rng))
        sections_.append(Section(kind, "\n".join(lines)))
    return PromptState(tuple(sections_))


def seeded_text(rng: random.Random, max_lines: int = 12) -> str:
    """Messy multi-line text: bullets, duplicates, blanks, stray punctuation."""
    lines = []
    pool = [seeded_directive(rng) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, max_lines)):
        roll = rng.random()
        if roll < 0.15:
            lines.append("")
        elif roll < 0.3:
            lines.append(rng.choice(string.punctuation))
        else:
            marker = rng.choice(["", "- ", "* ", "2) ", "10. ", "  - "])
            body = rng.choice(pool)
            if rng.random() < 0.3:
                body = body.upper()
            if rng.random() < 0.3:
                body += rng.choice([".", "!", " ;"])
            lines.append(marker + body)
    return "\n".join(lines)
