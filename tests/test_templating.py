"""Template loading and literal placeholder substitution."""

from __future__ import annotations

import pytest

from mpo.templating import PromptTemplate, TemplateError, default_template

BUILTIN_NAMES = ("gradient", "consolidate", "decompose", "rewrite", "question")


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
