"""Iterative section-wise prompt refinement.

One step critiques every section of the current prompt against that same
prompt (no section sees a neighbour's update from the current round), appends
the resulting directives to each section, de-duplicates, and assembles the
next prompt. Sections whose critique or cleanup fails carry over unchanged;
the step never loses a section and never touches a section whose critique
came back empty.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

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
    parse_structured_prompt,
    render_prompt,
    section_context,
    strip_code_fences,
    strip_tag_strings,
    token_count,
)
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)


class TargetMismatch(Exception):
    """A gradient was applied to a section of a different kind."""


class OptimizationAborted(Exception):
    """A run stopped early; carries the states completed so far."""

    def __init__(self, message: str, history: "RunHistory", cause: Exception | None = None):
        super().__init__(message)
        self.history = history
        self.cause = cause


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

    @property
    def section_order(self) -> tuple[SectionKind, ...]:
        return CANONICAL_ORDER


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
    addition = "\n".join(gradient.directives)
    content = f"{section.content}\n\n{addition}" if section.content else addition
    return Section(kind=section.kind, content=content, provenance=Provenance.REFINED)


def normalize_line(line: str) -> str:
    """Canonical form for duplicate detection, blind to list markers,
    internal whitespace runs, case, and trailing punctuation."""
    line = LIST_MARKER.sub("", line.strip(), count=1)
    line = " ".join(line.split()).lower()
    return line.rstrip(".,;:!?")


def lexical_dedup(content: str) -> str:
    """Drop every line whose normalized form already appeared earlier.

    Blank lines never participate: internal ones are kept as paragraph
    separators, leading and trailing ones are trimmed so repeated cleanup is
    a no-op. Lines that normalize to nothing (e.g. a bare "-") are kept.
    """
    kept: list[str] = []
    seen: set[str] = set()
    for line in content.splitlines():
        if not line.strip():
            kept.append(line)
            continue
        key = normalize_line(line)
        if not key:
            kept.append(line)
            continue
        if key in seen:
            continue
        seen.add(key)
        kept.append(line)
    while kept and not kept[0].strip():
        kept.pop(0)
    while kept and not kept[-1].strip():
        kept.pop()
    return "\n".join(kept)


def duplicate_line_count(content: str) -> int:
    """Number of non-blank lines that repeat an earlier line's normalized form."""
    seen: set[str] = set()
    duplicates = 0
    for line in content.splitlines():
        key = normalize_line(line)
        if not key:
            continue
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
    return duplicates


def _truncate_to_token_budget(section: Section, budget: int) -> Section:
    """Cut at line boundaries until the section fits; always keep one line."""
    if section.token_count <= budget:
        return section
    lines = section.content.splitlines()
    while len(lines) > 1 and token_count("\n".join(lines)) > budget:
        lines.pop()
    while lines and not lines[-1].strip():
        lines.pop()
    truncated = "\n".join(lines)
    logger.warning(
        "section %s exceeded %d tokens, truncated from %d to %d",
        section.kind.display_name,
        budget,
        section.token_count,
        token_count(truncated),
    )
    return Section(kind=section.kind, content=truncated, provenance=section.provenance)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one refinement step.

    ``gradients`` is in section order; a section whose critique failed gets
    an empty sentinel gradient. Every section that carried over because of a
    failure has an entry in ``failures``, ordered by the step's
    ``process_order`` (one entry per section, critique or update).
    """

    state: PromptState
    gradients: tuple[TextualGradient, ...]
    failures: tuple[tuple[SectionKind, str], ...] = field(default=())


def step(
    state: PromptState,
    critic: CriticBackend,
    config: OptimizerConfig | None = None,
    *,
    gradient_template: PromptTemplate | None = None,
    consolidate_template: PromptTemplate | None = None,
    failure_examples: str = "",
    process_order: tuple[SectionKind, ...] | None = None,
) -> StepResult:
    """Advance the prompt by one refinement round.

    Each section's update (critique, append, dedup, truncate) is one job, and
    up to ``config.concurrency_width`` jobs run at once, so a section's
    consolidation starts as soon as its own critique returns. All critiques
    read the incoming state, so the result is independent of processing
    order and width; ``process_order`` exists to let tests check exactly that.
    """
    config = config or OptimizerConfig()
    order = process_order or config.section_order
    if sorted(order, key=list(CANONICAL_ORDER).index) != list(CANONICAL_ORDER):
        raise ValueError("process_order must be a permutation of the section kinds")

    def update(kind: SectionKind) -> tuple[Section, TextualGradient, str | None]:
        section = state.section(kind)
        try:
            gradient = request_gradient(
                critic,
                section,
                section_context(state, kind),
                template=gradient_template,
                failure_examples=failure_examples,
            )
        except BackendError as exc:
            logger.warning("critique failed for %s: %s", kind.display_name, exc)
            empty = TextualGradient.empty(kind, critic_identity=critic.identity)
            return section, empty, f"critique failed: {exc}"
        if gradient.is_empty:
            return section, gradient, None
        try:
            expanded = apply_gradient(section, gradient)
            cleaned = _dedup(expanded, critic, config, consolidate_template)
            return _truncate_to_token_budget(cleaned, config.max_section_tokens), gradient, None
        except (TagCollision, ConsolidationRejected, BackendError) as exc:
            logger.warning("update failed for %s: %s", kind.display_name, exc)
            return section, gradient, f"update failed: {exc}"

    outcomes = dict(zip(order, fan_out(update, order, config.concurrency_width)))
    next_state = PromptState(
        sections=tuple(outcomes[kind][0] for kind in CANONICAL_ORDER),
        iteration=state.iteration + 1,
        parent_digest=state.digest,
    )
    return StepResult(
        state=next_state,
        gradients=tuple(outcomes[kind][1] for kind in CANONICAL_ORDER),
        failures=tuple((kind, outcomes[kind][2]) for kind in order if outcomes[kind][2]),
    )


def _dedup(
    section: Section,
    critic: CriticBackend,
    config: OptimizerConfig,
    template: PromptTemplate | None,
) -> Section:
    if config.dedup_mode is DedupMode.LEXICAL:
        return _lexical_pass(section)
    if config.dedup_mode is DedupMode.LLM:
        return consolidate(critic, section, template=template)
    return consolidate(critic, _lexical_pass(section), template=template)


def _lexical_pass(section: Section) -> Section:
    cleaned = lexical_dedup(section.content)
    if cleaned == section.content:
        return section
    return Section(kind=section.kind, content=cleaned, provenance=section.provenance)


@dataclass(frozen=True)
class RunHistory:
    """Full trajectory of a refinement run.

    ``states`` has one more entry than ``gradients``: state ``t`` plus
    gradient round ``t`` produce state ``t + 1``, and the digest chain ties
    each state to its parent.
    """

    states: tuple[PromptState, ...]
    gradients: tuple[tuple[TextualGradient, ...], ...]
    failures: tuple[tuple[tuple[SectionKind, str], ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("history needs at least an initial state")
        if len(self.gradients) != len(self.states) - 1:
            raise ValueError("need exactly one gradient round per transition")
        if self.failures and len(self.failures) != len(self.gradients):
            raise ValueError("need one failure list per gradient round")
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
        return len(self.gradients)

    @property
    def digests(self) -> tuple[str, ...]:
        return tuple(state.digest for state in self.states)


def optimize(
    initial: PromptState,
    critic: CriticBackend,
    config: OptimizerConfig | None = None,
    *,
    gradient_template: PromptTemplate | None = None,
    consolidate_template: PromptTemplate | None = None,
    failure_examples: str = "",
) -> RunHistory:
    """Run the full refinement loop from an initial prompt.

    Per-section failures are absorbed by :func:`step`; anything else (replay
    divergence, a corrupt state) aborts the run with the partial history
    attached for inspection.
    """
    config = config or OptimizerConfig()
    if initial.iteration != 0:
        raise ValueError("initial state must have iteration 0")
    states = [initial]
    gradient_rounds: list[tuple[TextualGradient, ...]] = []
    failure_rounds: list[tuple[tuple[SectionKind, str], ...]] = []
    for _ in range(config.iterations):
        try:
            result = step(
                states[-1],
                critic,
                config,
                gradient_template=gradient_template,
                consolidate_template=consolidate_template,
                failure_examples=failure_examples,
            )
        except Exception as exc:
            partial = RunHistory(
                states=tuple(states),
                gradients=tuple(gradient_rounds),
                failures=tuple(failure_rounds),
            )
            raise OptimizationAborted(
                f"run aborted at iteration {len(gradient_rounds)}: {exc}", partial, exc
            ) from exc
        states.append(result.state)
        gradient_rounds.append(result.gradients)
        failure_rounds.append(result.failures)
    return RunHistory(
        states=tuple(states),
        gradients=tuple(gradient_rounds),
        failures=tuple(failure_rounds),
    )


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
        return PromptState(
            sections=tuple(sections),
            iteration=state.iteration + 1,
            parent_digest=state.digest,
        )
    sections = tuple(
        Section(
            kind=section.kind,
            content=section.content,
            provenance=Provenance.REFINED if not section.is_empty else section.provenance,
        )
        for section in parsed.sections
    )
    return PromptState(
        sections=sections,
        iteration=state.iteration + 1,
        parent_digest=state.digest,
    )


@dataclass(frozen=True)
class GrowthReport:
    """Token and duplication accounting for a finished run."""

    section_tokens: tuple[dict[SectionKind, int], ...]
    total_tokens: tuple[int, ...]
    token_deltas: tuple[int, ...]
    duplicates_before: tuple[int, ...]
    duplicates_after: tuple[int, ...]
    lines_removed: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "section_tokens": [
                {kind.value: tokens for kind, tokens in per_state.items()}
                for per_state in self.section_tokens
            ],
            "total_tokens": list(self.total_tokens),
            "token_deltas": list(self.token_deltas),
            "duplicates_before": list(self.duplicates_before),
            "duplicates_after": list(self.duplicates_after),
            "lines_removed": list(self.lines_removed),
        }


def growth_metrics(history: RunHistory) -> GrowthReport:
    """Measure how the prompt grew and how much de-duplication clawed back.

    Pure function of the history: the pre-cleanup text is reconstructed by
    re-applying each recorded gradient to its source state.
    """
    section_tokens = tuple(
        {section.kind: section.token_count for section in state.sections}
        for state in history.states
    )
    totals = tuple(state.total_tokens for state in history.states)
    deltas = tuple(totals[i + 1] - totals[i] for i in range(len(totals) - 1))

    duplicates_before: list[int] = []
    duplicates_after: list[int] = []
    lines_removed: list[int] = []
    for index, gradient_round in enumerate(history.gradients):
        before_state = history.states[index]
        after_state = history.states[index + 1]
        before_dups = 0
        after_dups = 0
        removed = 0
        for gradient in gradient_round:
            source = before_state.section(gradient.target)
            final = after_state.section(gradient.target)
            try:
                expanded = apply_gradient(source, gradient)
            except (TagCollision, TargetMismatch):
                expanded = source
            before_dups += duplicate_line_count(expanded.content)
            after_dups += duplicate_line_count(final.content)
            removed += max(
                0,
                _nonblank_lines(expanded.content) - _nonblank_lines(final.content),
            )
        duplicates_before.append(before_dups)
        duplicates_after.append(after_dups)
        lines_removed.append(removed)

    return GrowthReport(
        section_tokens=section_tokens,
        total_tokens=totals,
        token_deltas=deltas,
        duplicates_before=tuple(duplicates_before),
        duplicates_after=tuple(duplicates_after),
        lines_removed=tuple(lines_removed),
    )


def _nonblank_lines(content: str) -> int:
    return sum(1 for line in content.splitlines() if line.strip())
