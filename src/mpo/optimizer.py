"""Iterative section-wise prompt refinement.

One step critiques every section of the current prompt against that same
prompt (no section sees a neighbour's update from the current round), appends
the resulting directives to each section, de-duplicates, and assembles the
next prompt. Sections whose critique or cleanup fails, and sections saturated
at the token budget, carry over unchanged; the step never loses a section and
never touches a section whose critique came back empty.
"""

from __future__ import annotations

import enum
import functools
import logging
from dataclasses import dataclass
from typing import AbstractSet, NamedTuple

from .backends import CONSOLIDATION_PARAMS, BackendError, ChatTurn, CriticBackend, fan_out
from .critic import (
    ConsolidationRejected,
    LIST_MARKER,
    TextualGradient,
    consolidate,
    request_gradient,
)
from .schema import (
    CANONICAL_ORDER,
    PromptState,
    Provenance,
    SchemaError,
    Section,
    SectionKind,
    TagCollision,
    check_tags,
    parse_structured_prompt,
    render_prompt,
    section_context,
    strip_code_fences,
    strip_tag_strings,
)
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)


class TargetMismatch(Exception):
    """A gradient was applied to a section of a different kind."""


class OptimizationAborted(Exception):
    """A run stopped early; carries the states completed so far."""

    def __init__(self, message: str, history: "RunHistory"):
        super().__init__(message)
        self.history = history


class DedupMode(enum.Enum):
    LEXICAL = "lexical"
    LLM = "llm"
    LEXICAL_THEN_LLM = "lexical_then_llm"


@dataclass(frozen=True)
class OptimizerConfig:
    """Run settings. ``concurrency_width`` bounds how many whole section
    updates (critique plus dedup, consolidation included) run at once."""

    iterations: int = 3
    dedup_mode: DedupMode = DedupMode.LEXICAL
    concurrency_width: int = 1
    max_section_tokens: int = 800

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.concurrency_width < 1:
            raise ValueError("concurrency_width must be >= 1")
        if self.max_section_tokens < 1:
            raise ValueError("max_section_tokens must be >= 1")


def apply_gradient(section: Section, gradient: TextualGradient) -> Section:
    """Append a gradient's directives to the section it targets.

    An empty gradient returns the section unchanged (same object), so
    callers can cheaply detect "nothing happened".
    """
    if gradient.target is not section.kind:
        raise TargetMismatch(
            f"gradient targets {gradient.target.display_name}, "
            f"section is {section.kind.display_name}"
        )
    if gradient.is_empty:
        return section
    new = "\n".join("\n".join(gradient.directives).rstrip().splitlines())
    check_tags(section.kind, new)  # the section's own lines passed it already
    content = f"{section.content}\n\n{new}" if section.content else new.lstrip()
    tokens = section.token_count + len(new.split())
    return Section.of_valid_lines(section.kind, content, Provenance.REFINED, tokens)


@functools.lru_cache(maxsize=1 << 14)
def normalize_line(line: str) -> str:
    """Canonical form for duplicate detection, blind to list markers,
    internal whitespace runs, case, and trailing punctuation. Cached, since
    every round re-reads the lines that earlier rounds kept."""
    line = LIST_MARKER.sub("", line.strip(), count=1)
    line = " ".join(line.split()).lower()
    return line.rstrip(".,;:!?")


class _LinePass(NamedTuple):
    """A lexical dedup pass over some lines: the lines it kept (none trimmed),
    the normalized keys it met (a set, never mutated once built), the kept
    non-blank lines, the lines it dropped as repeats, and the kept tokens."""

    kept: tuple[str, ...] = ()
    seen: AbstractSet[str] = frozenset()
    lines: int = 0
    dropped: int = 0
    tokens: int = 0

    def then(self, text: str) -> "_LinePass":
        """This pass continued over the lines of ``text``, at their cost alone."""
        kept, seen = [], set(self.seen)
        count, dropped, tokens = self.lines, self.dropped, self.tokens
        for line in text.splitlines():
            if line.strip():
                key = normalize_line(line)
                if key and key in seen:
                    dropped += 1
                    continue
                seen.add(key)
                count += 1
                tokens += len(line.split())
            kept.append(line)
        return _LinePass(self.kept + tuple(kept), seen, count, dropped, tokens)


def _line_pass(section: Section) -> _LinePass:
    """``section``'s pass, scanned once and kept on it like its token count; a
    pass depends on the content alone, so two threads that race store equal ones."""
    if (found := section.__dict__.get("line_pass")) is None:
        found = section.__dict__["line_pass"] = _LinePass().then(section.content)
    return found


def lexical_dedup(content: str) -> str:
    """Drop every line whose normalized form already appeared earlier.

    Blank lines never participate: internal ones are kept as paragraph
    separators, leading and trailing ones are trimmed so repeated cleanup is
    a no-op. Lines that normalize to nothing (e.g. a bare "-") are kept.
    One scan of ``content``, the pass :func:`step` keeps on each section.
    """
    kept = list(_LinePass().then(content).kept)
    while kept and not kept[0].strip():
        kept.pop(0)
    while kept and not kept[-1].strip():
        kept.pop()
    return "\n".join(kept)


def _truncate_to_token_budget(section: Section, budget: int) -> tuple[Section, int]:
    """Keep the oldest lines: cut from the end, where the newest directives
    sit, at line boundaries until the section fits; always keep one line.

    A section this cuts is saturated from the next round on. Returns
    the section and the number of non-blank lines cut, which the section's
    :class:`SectionUpdate` reports as ``truncated``. The cut costs one split
    per popped line, since a newline never joins two tokens.
    """
    if section.token_count <= budget:
        return section, 0
    lines = section.content.splitlines()
    tokens, cut = section.token_count, 0
    while len(lines) > 1 and tokens > budget:
        line = lines.pop()
        tokens -= len(line.split())
        cut += bool(line.strip())
    while lines and not lines[-1].strip():
        lines.pop()
    if cut:
        logger.warning(
            "section %s exceeded %d tokens, truncated from %d to %d",
            section.kind.display_name, budget, section.token_count, tokens,
        )
    return Section(section.kind, "\n".join(lines), section.provenance), cut


@dataclass(frozen=True)
class SectionUpdate:
    """What one round did to one section, recorded as it happened.

    ``failure`` is why the section carried over unchanged, or None.
    ``duplicates_before`` counts repeated lines once the directives are
    appended, ``duplicates_after`` in the section that landed. ``removed``
    counts the non-blank lines that dedup or consolidation dropped (a failed
    update drops every appended line), ``truncated`` those the token budget cut.
    ``saturated`` marks a section that was not critiqued because it sat at
    the budget (see :func:`step`); it carried over unchanged, not failed.
    """

    gradient: TextualGradient
    failure: str | None
    duplicates_before: int
    duplicates_after: int
    removed: int
    truncated: int
    saturated: bool = False


@dataclass(frozen=True)
class StepResult:
    """Outcome of one refinement step: the next state, and one update record
    per section, in section order; a section whose critique failed gets an
    empty sentinel gradient.
    """

    state: PromptState
    updates: tuple[SectionUpdate, ...]


def step(
    state: PromptState,
    critic: CriticBackend,
    config: OptimizerConfig | None = None,
    *,
    gradient_template: PromptTemplate | None = None,
    consolidate_template: PromptTemplate | None = None,
    process_order: tuple[SectionKind, ...] | None = None,
    saturated: frozenset[SectionKind] = frozenset(),
) -> StepResult:
    """Advance the prompt by one refinement round.

    Each section's update (critique, append, dedup, truncate) is one job, and
    up to ``config.concurrency_width`` jobs run at once, so a section's
    consolidation starts as soon as its own critique returns. All critiques
    read the incoming state, so the result is independent of processing
    order and width; ``process_order`` exists to let tests check exactly that.

    A saturated section (listed in ``saturated``, or coming in at
    ``config.max_section_tokens`` or above) is neither critiqued nor
    consolidated, since the budget, which keeps the oldest lines, would cut
    its directives.

    Lexical dedup extends the line pass kept on the incoming section over the
    appended lines only, so an update costs time in proportion to them; the
    landed section keeps its own pass, so runs in one process share nothing.
    """
    config = config or OptimizerConfig()
    order = process_order or CANONICAL_ORDER
    if sorted(order, key=list(CANONICAL_ORDER).index) != list(CANONICAL_ORDER):
        raise ValueError("process_order must be a permutation of the section kinds")
    budget = config.max_section_tokens
    saturated = saturated | {k for k in order if state.section(k).token_count >= budget}

    def update(kind: SectionKind) -> tuple[Section, SectionUpdate]:
        section = landed = state.section(kind)
        grown = _line_pass(section)
        gradient, failure, truncated = TextualGradient.empty(kind, critic_identity=critic.identity), None, 0
        if kind not in saturated:
            try:
                gradient = request_gradient(
                    critic, section, section_context(state, kind), template=gradient_template
                )
            except BackendError as exc:
                logger.warning("critique failed for %s: %s", kind.display_name, exc)
                failure = f"critique failed: {exc}"
        if not gradient.is_empty:
            try:
                expanded = apply_gradient(section, gradient)
                # Only the lines past the incoming section's own are new to scan.
                grown = grown.then(expanded.content[len(section.content) + bool(section.content):])
                cleaned = _dedup(expanded, grown, critic, config, consolidate_template)
                landed, truncated = _truncate_to_token_budget(cleaned, budget)
                if landed.content == section.content:  # every new line was dropped
                    landed = section
            except (TagCollision, ConsolidationRejected, BackendError) as exc:
                logger.warning("update failed for %s: %s", kind.display_name, exc)
                landed = section
                failure = f"update failed: {exc}"
        after = _line_pass(landed)
        removed = max(0, grown.lines + grown.dropped - after.lines - after.dropped - truncated)
        return landed, SectionUpdate(gradient, failure, grown.dropped, after.dropped, removed, truncated, kind in saturated)

    with fan_out(update, order, config.concurrency_width) as results:
        outcomes = dict(zip(order, results))
    return StepResult(
        state=state.successor(tuple(outcomes[kind][0] for kind in CANONICAL_ORDER)),
        updates=tuple(outcomes[kind][1] for kind in CANONICAL_ORDER),
    )


def _dedup(
    expanded: Section,
    grown: _LinePass,
    critic: CriticBackend,
    config: OptimizerConfig,
    template: PromptTemplate | None,
) -> Section:
    if config.dedup_mode is DedupMode.LLM:
        return consolidate(critic, expanded, template=template)
    kept = list(grown.kept)  # the lines, not copies, so the two passes share them
    while not kept[-1].strip():
        kept.pop()
    kept[-1] = kept[-1].rstrip()  # as Section strips it
    content = "\n".join(kept)
    cleaned = Section.of_valid_lines(expanded.kind, content, expanded.provenance, grown.tokens)
    cleaned.__dict__["line_pass"] = grown._replace(kept=tuple(kept), dropped=0)
    if config.dedup_mode is DedupMode.LEXICAL:
        return cleaned
    reply = consolidate(critic, cleaned, template=template)
    return cleaned if reply.content == cleaned.content else reply  # keeps cleaned's pass


@dataclass(frozen=True)
class RunHistory:
    """Full trajectory of a refinement run.

    ``states`` has one more entry than ``updates``: state ``t`` plus update
    round ``t`` produce state ``t + 1``, and the digest chain ties each state
    to its parent.
    """

    states: tuple[PromptState, ...]
    updates: tuple[tuple[SectionUpdate, ...], ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("history needs at least an initial state")
        if len(self.updates) != len(self.states) - 1:
            raise ValueError("need exactly one update round per transition")
        for index, state in enumerate(self.states):
            if state.iteration != index:
                raise ValueError(f"state {index} has iteration {state.iteration}")
            if index and state.parent_digest != self.states[index - 1].digest:
                raise ValueError(f"state {index} does not chain to its parent")

    @property
    def initial(self) -> PromptState:
        return self.states[0]

    @property
    def final(self) -> PromptState:
        return self.states[-1]

    @property
    def iterations(self) -> int:
        return len(self.updates)

    @property
    def digests(self) -> tuple[str, ...]:
        return tuple(state.digest for state in self.states)

    @property
    def gradients(self) -> tuple[tuple[TextualGradient, ...], ...]:
        return tuple(tuple(update.gradient for update in round_) for round_ in self.updates)

    @property
    def failures(self) -> tuple[tuple[tuple[SectionKind, str], ...], ...]:
        return tuple(
            tuple((u.gradient.target, u.failure) for u in round_ if u.failure)
            for round_ in self.updates
        )


def optimize(
    initial: PromptState,
    critic: CriticBackend,
    config: OptimizerConfig | None = None,
    *,
    gradient_template: PromptTemplate | None = None,
    consolidate_template: PromptTemplate | None = None,
) -> RunHistory:
    """Run the full refinement loop from an initial prompt.

    Per-section failures are absorbed by :func:`step`; anything else (replay
    divergence, a corrupt state) aborts the run with the partial history
    attached for inspection. A section the budget cut or skipped in one
    round is passed to the next as saturated. After a round that saturates
    every section, later rounds repeat it (its sections and its updates tuple)
    without critiquing: :func:`step` would rebuild it equal, since
    ``critic.identity`` stays the same during a run for every built-in backend.
    """
    config = config or OptimizerConfig()
    if initial.iteration != 0:
        raise ValueError("initial state must have iteration 0")
    states = [initial]
    rounds: list[tuple[SectionUpdate, ...]] = []
    saturated: frozenset[SectionKind] = frozenset()
    for _ in range(config.iterations):
        if rounds and all(update.saturated for update in rounds[-1]):
            states.append(states[-1].successor(states[-1].sections))
            rounds.append(rounds[-1])
            continue
        try:
            result = step(
                states[-1],
                critic,
                config,
                gradient_template=gradient_template,
                consolidate_template=consolidate_template,
                saturated=saturated,
            )
        except Exception as exc:
            partial = RunHistory(states=tuple(states), updates=tuple(rounds))
            raise OptimizationAborted(
                f"run aborted at iteration {len(rounds)}: {exc}", partial
            ) from exc
        states.append(result.state)
        rounds.append(result.updates)
        saturated = frozenset(
            u.gradient.target for u in result.updates if u.saturated or u.truncated
        )
    return RunHistory(states=tuple(states), updates=tuple(rounds))


def baseline_global_step(
    state: PromptState,
    critic: CriticBackend,
    template: PromptTemplate | None = None,
) -> PromptState:
    """Whole-prompt rewrite baseline: one critique-and-rewrite call.

    If the reply does not parse as a tagged prompt, the sanitized text lands
    in the task section so the result is still a usable prompt.
    """
    template = template or default_template("rewrite")
    filled = template.fill(PROMPT=render_prompt(state))
    response = critic.complete((ChatTurn("user", filled),), CONSOLIDATION_PARAMS)
    text = strip_code_fences(response)
    try:
        parsed = parse_structured_prompt(text)
    except SchemaError as exc:
        logger.warning("rewrite reply did not parse (%s); storing it as the task section", exc)
        sections = []
        for kind in CANONICAL_ORDER:
            content = strip_tag_strings(text) if kind is SectionKind.TASK_DETAILS else ""
            sections.append(Section(kind=kind, content=content, provenance=Provenance.REFINED))
        return state.successor(tuple(sections))
    return state.successor(tuple(
        Section(
            kind=section.kind,
            content=section.content,
            provenance=Provenance.REFINED if not section.is_empty else section.provenance,
        )
        for section in parsed.sections
    ))


def growth_metrics(history: RunHistory) -> dict:
    """Measure how the prompt grew and how much cleanup clawed back, as the
    ``growth`` object of ``metrics.json``.

    Token counts come from the states; duplication and line counts are
    per-round sums over the :class:`SectionUpdate` records.
    """
    totals = [state.total_tokens for state in history.states]

    def per_round(name: str) -> list[int]:
        return [sum(getattr(update, name) for update in round_) for round_ in history.updates]

    return {
        "section_tokens": [
            {section.kind.value: section.token_count for section in state.sections}
            for state in history.states
        ],
        "total_tokens": totals,
        "token_deltas": [after - before for before, after in zip(totals, totals[1:])],
        "duplicates_before": per_round("duplicates_before"),
        "duplicates_after": per_round("duplicates_after"),
        "lines_removed": per_round("removed"),
        "lines_truncated": per_round("truncated"),
        "sections_saturated": per_round("saturated"),
    }
