"""The section-update fast paths against the loops they replaced.

``_truncate_to_token_budget`` keeps a running token total instead of
re-joining and re-splitting the section for every popped line, and
``Section`` scans lines for tags only when its content holds a "<". The
reference functions below are the earlier loops, kept as they were apart
from returning what the truncation warning logged, and each property
requires the same result from both.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as local
from mpo import CANONICAL_ORDER, Provenance, Section, SectionKind, TagCollision, token_count
from mpo.optimizer import _truncate_to_token_budget
from mpo.schema import TAG_STRING_RE, _parse_tag_line


def reference_truncate(section: Section, budget: int) -> tuple[Section, int, tuple | None]:
    """The join-and-split budget cut, plus the numbers its warning logged."""
    if token_count(section.content) <= budget:
        return section, 0, None
    lines = section.content.splitlines()
    cut = 0
    while len(lines) > 1 and token_count("\n".join(lines)) > budget:
        cut += bool(lines.pop().strip())
    while lines and not lines[-1].strip():
        lines.pop()
    truncated = "\n".join(lines)
    warning = (section.kind.display_name, budget, token_count(section.content), token_count(truncated))
    return Section(section.kind, truncated, section.provenance), cut, warning


def reference_collision(kind: SectionKind, content: str) -> str | None:
    """The message of the TagCollision the every-line scan raised, or None."""
    content = "\n".join(content.strip().splitlines())
    match = TAG_STRING_RE.search(content)
    if match:
        return f"{kind.display_name} content contains the tag string {match.group(0)!r}"
    for line in content.splitlines():
        if _parse_tag_line(line.strip()) is not None:
            return (
                f"{kind.display_name} content contains a line that "
                f"parses as the {line.strip()!r} tag"
            )
    return None


@contextmanager
def budget_warnings():
    """Collect the args of the optimizer's truncation warnings."""
    records: list[tuple] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: records.append(record.args)
    logger = logging.getLogger("mpo.optimizer")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


_WORDS = st.sampled_from(("keep", "answers", "short", "A", "letter", "-", "1.", "Only!"))
# Some separators also break lines (\x0b, \x1c, \x85, \u2028), so
# normalization turns one drawn line into several.
_GAPS = st.sampled_from((" ", "  ", "\t", "\xa0", "\u3000", "\x0b", "\x1c", "\x85", "\u2028"))


@st.composite
def _lines(draw) -> str:
    kind = draw(st.sampled_from(("blank", "spaces", "words", "long")))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.text(alphabet=" \t\xa0\u3000", min_size=1, max_size=4))
    size = (1, 8) if kind == "words" else (20, 60)
    words = draw(st.lists(_WORDS, min_size=size[0], max_size=size[1]))
    gaps = draw(st.lists(_GAPS, min_size=len(words), max_size=len(words)))
    return "".join(gap + word for gap, word in zip(gaps, words))


@st.composite
def sections_and_budgets(draw) -> tuple[Section, int]:
    lines = draw(st.lists(_lines(), min_size=1, max_size=25))
    section = Section(
        draw(st.sampled_from(CANONICAL_ORDER)),
        "\n".join(lines),
        draw(st.sampled_from(tuple(Provenance))),
    )
    return section, draw(st.integers(1, token_count(section.content) + 5))


class TestTruncationMatchesReference:
    @settings(max_examples=200)
    @given(case=sections_and_budgets())
    def test_same_section_cut_and_warning(self, case):
        section, budget = case
        expected, expected_cut, expected_warning = reference_truncate(section, budget)
        # A fresh copy, so the reference's reads do not warm the cache.
        fresh = Section(section.kind, section.content, section.provenance)
        with budget_warnings() as warnings:
            result, cut = _truncate_to_token_budget(fresh, budget)
        assert (result, cut) == (expected, expected_cut)
        assert result.provenance is expected.provenance
        assert warnings == ([expected_warning] if expected_warning else [])


_TAGGY = st.sampled_from(
    (
        "<Task>", "< task  details >", "<OUTPUT FORMAT>", "  <Context>  ", "<Foo>",
        "<task", "a < b", "x<Constraints>y", "<System\u3000Role>", "<>", "<<Task>>",
    )
)
_PLAIN = st.text(alphabet=st.characters(codec="utf-8", exclude_characters="<"), max_size=30)


class TestTagScanMatchesReference:
    @settings(max_examples=200)
    @given(
        kind=st.sampled_from(CANONICAL_ORDER),
        lines=st.lists(st.one_of(_PLAIN, _TAGGY, st.text(max_size=30)), max_size=8),
    )
    def test_collides_exactly_when_every_line_scan_did(self, kind, lines):
        content = "\n".join(lines)
        expected = reference_collision(kind, content)
        try:
            Section(kind, content)
        except TagCollision as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @settings(max_examples=200)
    @given(kind=st.sampled_from(CANONICAL_ORDER), content=_PLAIN)
    def test_content_without_angle_bracket_never_collides(self, kind, content):
        assert reference_collision(kind, content) is None
        assert Section(kind, content).content == "\n".join(content.strip().splitlines())


class TestCachedTokenCount:
    @settings(max_examples=100)
    @given(section=local.sections(SectionKind.TASK_DETAILS))
    def test_cached_section_behaves_like_fresh(self, section):
        fresh = Section(section.kind, section.content, section.provenance)
        assert section.token_count == len(section.content.split())
        assert "token_count" in vars(section) and "token_count" not in vars(fresh)
        assert section == fresh
        assert hash(section) == hash(fresh)
        assert repr(section) == repr(fresh)
        assert pickle.dumps(section) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(section))
        assert restored == fresh
        assert restored.token_count == section.token_count

    def test_fields_unchanged(self):
        fields = [(f.name, f.type) for f in dataclasses.fields(Section)]
        assert fields == [("kind", "SectionKind"), ("content", "str"), ("provenance", "Provenance")]
