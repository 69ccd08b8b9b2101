"""Plain-text prompt templates with `{NAME}` placeholders.

Placeholders are replaced literally, so template values may contain braces,
format specs, or further placeholder-shaped text without breaking the fill.
Built-in templates ship as package data; callers can swap in their own files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

_PLACEHOLDER_RE = re.compile(r"\{([A-Z_]+)\}")


class TemplateError(Exception):
    """A fill referenced a placeholder the template does not define."""


@dataclass(frozen=True)
class PromptTemplate:
    """Immutable template text plus a literal substitution fill."""

    text: str

    @cached_property
    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.text))

    @cached_property
    def _inverse(self) -> re.Pattern[str]:
        """Literal text escaped, a placeholder's first use a lazy group and each later use a back-reference."""
        pieces = _PLACEHOLDER_RE.split(self.text)  # literal, name, literal, ..., name, literal
        return re.compile("".join(
            re.escape(piece) if i % 2 == 0 else f"(?P={piece})" if piece in pieces[1:i:2] else f"(?P<{piece}>.*?)"
            for i, piece in enumerate(pieces)
        ), re.S)

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

    def values(self, text: str) -> dict[str, str] | None:
        """The inverse of :meth:`fill`: each placeholder's value in ``text``, or None if ``text`` is no fill of this
        template. Each value is the shortest that lets the rest match, so one holding the literal text after it reads short."""
        return (match := self._inverse.fullmatch(text)) and match.groupdict()


@lru_cache(maxsize=None)
def default_template(name: str) -> PromptTemplate:
    """Load a built-in template by bare name, e.g. ``gradient``."""
    ref = resources.files("mpo") / "templates" / f"{name}.txt"
    return PromptTemplate(ref.read_text(encoding="utf-8"))
