"""Plain-text prompt templates with `{NAME}` placeholders.

Placeholders are replaced literally, so template values may contain braces,
format specs, or further placeholder-shaped text without breaking the fill.
Built-in templates ship as package data; callers can swap in their own files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

_PLACEHOLDER_RE = re.compile(r"\{([A-Z_]+)\}")


class TemplateError(Exception):
    """A fill referenced a placeholder the template does not define."""


@dataclass(frozen=True)
class PromptTemplate:
    """Immutable template text plus a literal substitution fill."""

    text: str

    @property
    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.text))

    def fill(self, **values: str) -> str:
        """Replace placeholders in a single pass.

        Substituted values are never rescanned, so they may safely contain
        brace-wrapped text of their own. Placeholders without a value stay
        literal, allowing partial fills.
        """
        unknown = set(values) - self.placeholders
        if unknown:
            raise TemplateError(
                f"unknown placeholders {sorted(unknown)}; "
                f"template defines {sorted(self.placeholders)}"
            )
        return _PLACEHOLDER_RE.sub(
            lambda match: values.get(match.group(1), match.group(0)), self.text
        )


@lru_cache(maxsize=None)
def default_template(name: str) -> PromptTemplate:
    """Load a built-in template by bare name, e.g. ``gradient``."""
    ref = resources.files("mpo") / "templates" / f"{name}.txt"
    return PromptTemplate(ref.read_text(encoding="utf-8"))
