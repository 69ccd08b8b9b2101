from __future__ import annotations

from pathlib import Path

import pytest

from mpo import PromptState, Section, SectionKind, parse_structured_prompt
from provider import Provider

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def raw_prompt_text() -> str:
    """A realistic free-form prompt with recognizable topic headings."""
    return (DATA / "multi_task_raw.txt").read_text(encoding="utf-8")


@pytest.fixture
def tagged_prompt_text() -> str:
    """The same prompt hand-structured into the five-section wire format."""
    return (DATA / "multi_task_tagged.txt").read_text(encoding="utf-8")


@pytest.fixture
def tagged_prompt(tagged_prompt_text: str) -> PromptState:
    return parse_structured_prompt(tagged_prompt_text)


@pytest.fixture
def refined_prompt() -> PromptState:
    """A hand-refined successor of the tagged prompt, for diff fixtures."""
    text = (DATA / "multi_task_refined.txt").read_text(encoding="utf-8")
    return parse_structured_prompt(text)


@pytest.fixture
def build_state():
    """Factory for prompt states from keyword section contents.

    Keys are section kind names, lowercased: build(task_details="...",
    constraints="..."). Unmentioned sections come out empty.
    """

    def build(**contents: str) -> PromptState:
        sections = [
            Section(SectionKind[name.upper()], value) for name, value in contents.items()
        ]
        return PromptState.from_sections(sections)

    return build


@pytest.fixture
def provider():
    """A loopback ``Provider`` on its own thread, and its base URL."""
    server = Provider()
    with server.serving() as base_url:
        yield base_url, server
