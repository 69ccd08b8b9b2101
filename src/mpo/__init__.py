"""Modular prompt optimization.

A prompt is held as five fixed sections (system role, context, task,
constraints, output format). Each refinement iteration critiques every
section against the whole prompt, applies the resulting directives to that
section alone, and de-duplicates, so improvements stay local and the
structure never drifts. A record/replay layer makes whole runs reproducible
without model access, and the evaluation harness scores prompts on
multiple-choice benchmarks by exact match.
"""

from types import ModuleType as _ModuleType

from .backends import (
    BackendError,
    ChatTurn,
    CriticBackend,
    GenerationParams,
    HTTPBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    Transcript,
    request_digest,
)
from .critic import (
    ConsolidationRejected,
    TextualGradient,
    consolidate,
    parse_directives,
    request_gradient,
)
from .decompose import EmptyInput, ExtractorFailure, decompose_unstructured, vocabulary_violations
from .evaluation import (
    Comparison,
    Dataset,
    DatasetError,
    DatasetMismatch,
    DuplicateId,
    EvalResult,
    EvaluationAborted,
    FormatError,
    ItemRecord,
    MCQItem,
    MissingAnswerKey,
    evaluate,
    extract_answer,
    load_dataset,
    pose_question,
    sample_items,
)
from .mocks import HeadingRuleExtractor, MockCritic, MockSolver
from .optimizer import (
    DedupMode,
    OptimizationAborted,
    OptimizerConfig,
    RunHistory,
    SectionUpdate,
    StepResult,
    TargetMismatch,
    apply_gradient,
    baseline_global_step,
    growth_metrics,
    lexical_dedup,
    normalize_line,
    optimize,
    step,
)
from .schema import (
    CANONICAL_ORDER,
    DiffReport,
    DuplicateSectionTag,
    MalformedTag,
    PromptState,
    Provenance,
    SchemaError,
    Section,
    SectionDiff,
    SectionKind,
    TagCollision,
    UntaggedLeadingContent,
    diff_states,
    parse_structured_prompt,
    render_prompt,
    section_context,
    strip_code_fences,
    strip_tag_strings,
    token_count,
)
from .templating import PromptTemplate, default_template

# The names imported above; submodules (bound by those imports) and underscore names are left out.
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
