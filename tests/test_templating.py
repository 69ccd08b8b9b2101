"""Template loading, literal placeholder substitution, and reading a fill back."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mpo.templating import PromptTemplate, TemplateError, default_template

BUILTIN_NAMES = ("gradient", "consolidate", "decompose", "rewrite", "question")
# Short runs of newlines, spaces, punctuation and letters of the kind the built-in templates' literal text is made of.
RUNS = st.text(alphabet="\n :.{}<>APaenos", max_size=8)


def pieces(template: PromptTemplate) -> list[str]:
    """The template text split as literal, placeholder name, literal, ..., name, literal."""
    return re.split(r"\{([A-Z_]+)\}", template.text)


def test_fill_replaces_placeholders():
    template = PromptTemplate("Name: {NAME}\nBody: {BODY}")
    assert template.fill(NAME="a", BODY="b") == "Name: a\nBody: b"


def test_placeholders_listed():
    assert PromptTemplate("{A} and {B} and {A}").placeholders == {"A", "B"}


def test_fill_is_single_pass():
    # A substituted value that happens to contain another placeholder token
    # must come through untouched.
    template = PromptTemplate("{CONTENT}|{CONTEXT}")
    assert template.fill(CONTENT="literal {CONTEXT}", CONTEXT="c") == "literal {CONTEXT}|c"


def test_fill_keeps_braces_in_values():
    template = PromptTemplate("x = {VALUE}")
    assert template.fill(VALUE="{not a placeholder} {}") == "x = {not a placeholder} {}"


def test_partial_fill_leaves_placeholder_literal():
    template = PromptTemplate("{A} {B}")
    assert template.fill(A="a") == "a {B}"


def test_unknown_key_rejected():
    with pytest.raises(TemplateError):
        PromptTemplate("{A}").fill(B="b")


def test_lowercase_braces_are_not_placeholders():
    template = PromptTemplate("{A} {a}")
    assert template.placeholders == {"A"}
    assert template.fill(A="x") == "x {a}"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_templates_load(name):
    template = default_template(name)
    assert template.text.strip()
    assert template.placeholders


def test_builtin_templates_are_cached():
    assert default_template("gradient") is default_template("gradient")


def test_builtin_placeholder_sets():
    assert default_template("gradient").placeholders == {
        "SECTION_KIND",
        "SECTION_CONTENT",
        "CONTEXT",
    }
    assert default_template("consolidate").placeholders == {"SECTION_KIND", "SECTION_CONTENT"}
    assert default_template("decompose").placeholders == {"PROMPT"}
    assert default_template("rewrite").placeholders == {"PROMPT"}
    assert default_template("question").placeholders == {"QUESTION", "CHOICES"}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@given(data=st.data())
def test_values_inverts_fill(name, data):
    # A value reads back whole unless the literal text after it shows up earlier, from inside the value.
    template = default_template(name)
    values = {placeholder: data.draw(RUNS, label=placeholder) for placeholder in sorted(template.placeholders)}
    for placeholder, after in zip(pieces(template)[1::2], pieces(template)[2::2]):
        assume(not after or after not in values[placeholder] + after[:-1])
    assert template.values(template.fill(**values)) == values


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@given(data=st.data())
def test_values_fill_back_to_the_text(name, data):
    # A fill of values that may hold the template's own literal text, maybe with more text around it.
    template = default_template(name)
    mixed = st.lists(st.one_of(RUNS, st.sampled_from(pieces(template)[::2])), max_size=4).map("".join)
    around = [data.draw(mixed, label="before"), data.draw(mixed, label="after")]
    text = around[0] + template.fill(**{p: data.draw(mixed, label=p) for p in sorted(template.placeholders)}) + around[1]
    found = template.values(text)
    assert found is None or template.fill(**found) == text
    assert found is not None or any(around)


def test_values_read_literal_text_as_written_and_each_value_shortest():
    template = PromptTemplate("{A}.{B}")
    assert template.values("x.y.z") == {"A": "x", "B": "y.z"}
    assert template.values("xyz") is None


def test_values_of_a_placeholder_used_twice():
    template = PromptTemplate("{A} and {B}, then {A}.")
    assert template.values("x and y, then x.") == {"A": "x", "B": "y"}
    assert template.values("x and y, then z.") is None
    # The shortest first value that fails the repeat gives way to one that matches it.
    assert template.values("a and b and c, then a and b.") == {"A": "a and b", "B": "c"}
    assert template.values("not a fill") is None
