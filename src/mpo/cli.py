"""Command-line entry points.

Commands: ``decompose`` (structure a free-form prompt), ``optimize`` (run the
refinement loop), ``eval`` (score a prompt on a dataset), ``compare`` (line
up result files), ``diff`` (per-section prompt diff). Exit codes: 0 success,
1 semantic difference (``diff`` only), 2 input error, unwritable output or an
unusable ``decompose`` extractor reply, 3 aborted run.

Settings come from an INI config file and command-line flags; flags win.
Backends run in one of three modes: ``mock`` (deterministic built-ins, the
default), ``live`` (HTTP, needs a base URL), or ``replay`` (serve responses
from a recorded transcript).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from threading import TIMEOUT_MAX
from typing import Iterable, Iterator

from .backends import (
    BackendError,
    CriticBackend,
    HTTPBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    Transcript,
    open_utf8,
)
from .decompose import decompose_unstructured
from .evaluation import (
    DATASET_FORMATS,
    Comparison,
    DatasetError,
    DatasetMismatch,
    EvalResult,
    EvaluationAborted,
    evaluate,
    load_dataset,
    sample_items,
)
from .mocks import HeadingRuleExtractor, MockCritic, MockSolver
from .optimizer import (
    DedupMode,
    OptimizationAborted,
    OptimizerConfig,
    RunHistory,
    growth_metrics,
    optimize,
)
from .schema import PromptState, SchemaError, diff_states, parse_structured_prompt, render_prompt
from .templating import PromptTemplate, default_template

logger = logging.getLogger(__name__)

TEMPLATE_NAMES = ("gradient", "consolidate", "decompose", "question")


class CLIError(Exception):
    """User-facing failure with an exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Merged settings from built-in defaults, the config file, and flags."""

    mode: str = "mock"
    base_url: str | None = None
    critic_model: str = "critic"
    solver_model: str = "solver"
    extractor_model: str = "extractor"
    timeout: float = 60.0
    iterations: int = OptimizerConfig.iterations
    dedup: DedupMode = OptimizerConfig.dedup_mode
    concurrency: int = OptimizerConfig.concurrency_width
    max_section_tokens: int = OptimizerConfig.max_section_tokens
    dataset_format: str = "generic_jsonl"
    split: str = "test"
    limit: int | None = None
    seed: int = 0
    out_dir: Path = Path("mpo-run")
    record: bool = False
    replay_path: Path | None = None
    templates: dict[str, Path] = field(default_factory=dict)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            iterations=self.iterations,
            dedup_mode=self.dedup,
            concurrency_width=self.concurrency,
            max_section_tokens=self.max_section_tokens,
        )

    def template(self, name: str) -> PromptTemplate | None:
        """The custom template, if any: it keeps the built-in's placeholders, which each call fills."""
        template = (path := self.templates.get(name)) and PromptTemplate(_read_text(path))
        if template and (missing := default_template(name).placeholders - template.placeholders):
            raise CLIError(f"template {path} lacks the placeholders {', '.join(f'{{{p}}}' for p in sorted(missing))}")
        return template


def _one_of(choices, convert=str) -> tuple:
    def parse(value: str):
        if value not in choices:
            raise ValueError(value)
        return convert(value)

    return parse, ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"


def _checked(convert, ok, what: str) -> tuple:
    def parse(value):
        if not ok(value := convert(value)):
            raise ValueError(value)
        return value

    return parse, what


# Every setting of the config file, one row each: INI section; key, which is
# the RunConfig field (in [templates], the template name); value type, as its
# parser and what a bad value is told it must be; and the argparse dest of the
# flag that overrides it. The mode flags, --out, --record and --replay have no
# file setting and are applied after the table.
_SETTINGS: tuple[tuple[str, str, tuple, str | None], ...] = (
    ("backend", "mode", _one_of(("mock", "live")), None),
    ("backend", "base_url", (str, "text"), None),
    ("backend", "critic_model", (str, "text"), None),
    ("backend", "solver_model", (str, "text"), None),
    ("backend", "extractor_model", (str, "text"), None),
    ("backend", "timeout", _checked(float, lambda v: 0 < v <= TIMEOUT_MAX, f"a number > 0 and <= {TIMEOUT_MAX:.0f}"), None),
    ("optimizer", "iterations", _checked(int, lambda v: v >= 0, "an integer >= 0"), "iterations"),
    ("optimizer", "dedup", _one_of([mode.value for mode in DedupMode], DedupMode), "dedup"),
    ("optimizer", "concurrency", _checked(int, lambda v: v >= 1, "an integer >= 1"), "concurrency"),
    ("optimizer", "max_section_tokens", _checked(int, lambda v: v >= 1, "an integer >= 1"), None),
    ("eval", "dataset_format", _one_of(DATASET_FORMATS), "format"),
    # Dataset rejects an empty split too, but without naming the key or flag.
    ("eval", "split", _checked(str, bool, "non-empty text"), "split"),
    ("eval", "limit", _checked(int, lambda v: v >= 1, "an integer >= 1"), "limit"),
    ("eval", "seed", (int, "an integer"), "seed"),
    # An empty value would read as Path("."), the working directory.
    *(("templates", name, _checked(str, bool, "a path"), None) for name in TEMPLATE_NAMES),
)


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags. File values are literal
    text; a ``;`` or ``#`` after whitespace starts a comment."""
    rows = {(section, key): row for section, key, *row in _SETTINGS}
    file_values: dict[tuple[str, str], str] = {}
    if getattr(args, "config", None):
        import configparser  # loaded only when a config file is given

        ini = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
        try:
            with open_utf8(args.config) as handle:
                ini.read_file(handle, source=args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise CLIError(f"cannot read config file: {exc}") from exc
        except configparser.Error as exc:
            raise CLIError(f"invalid config file: {exc}") from exc
        if ini.defaults():  # configparser would copy them into every section
            raise CLIError(f"[DEFAULT] takes no keys, got {', '.join(map(repr, ini.defaults()))}")
        for section in ini.sections():
            if section not in {known for known, _ in rows}:
                raise CLIError(f"unknown config section [{section}]")
            for key, text in ini.items(section):
                if (section, key) not in rows:
                    raise CLIError(f"unknown config key {key!r} in [{section}]")
                file_values[section, key] = text

    config = RunConfig()
    for (section, key), ((parse, what), flag) in rows.items():
        # The file value is parsed even when a flag overrides it.
        flag_value = getattr(args, flag, None) if flag else None
        for value in (file_values.get((section, key)), flag_value):
            if value is None:
                continue
            try:
                value = parse(value)
            except ValueError:
                raise CLIError(f"{key} must be {what}, got {value!r}") from None
            if section == "templates":
                config.templates[key] = Path(value)
            else:
                setattr(config, key, value)

    # Mode flags take precedence over the file in a fixed order.
    if getattr(args, "replay", None):
        config.mode = "replay"
        config.replay_path = Path(args.replay)
    elif getattr(args, "mock", False):
        config.mode = "mock"
    elif getattr(args, "live", False):
        config.mode = "live"
    if getattr(args, "out", None):
        config.out_dir = Path(args.out)
    if getattr(args, "record", False):
        config.record = config.mode != "replay"
        if not config.record:
            logger.warning("--record has no effect during replay; ignoring")
    return config


def build_backend(config: RunConfig, role: str) -> CriticBackend:
    """The backend for one model role: ``critic``, ``solver`` or ``extractor``."""
    if config.mode == "replay":
        try:
            return ReplayBackend(Transcript.load(config.replay_path))
        except OSError as exc:
            raise CLIError(f"cannot read transcript: {exc}") from exc
        except ValueError as exc:  # not JSON, not a record, or not UTF-8
            raise CLIError(f"malformed transcript {config.replay_path}: {exc}") from exc
    if config.mode == "mock":  # the critic and the extractor read requests through the run's templates
        if role == "solver":
            return MockSolver()
        mock, name = (MockCritic, "consolidate") if role == "critic" else (HeadingRuleExtractor, "decompose")
        return mock(templates={name: config.template(name) or default_template(name)})
    try:
        return HTTPBackend(getattr(config, f"{role}_model"), config.base_url, timeout=config.timeout)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _read_text(path: Path) -> str:
    try:
        with open_utf8(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc


def _load_state(path: Path) -> PromptState:
    try:
        return parse_structured_prompt(_read_text(path))
    except SchemaError as exc:
        raise CLIError(f"{path} is not a structured prompt: {exc}") from exc


@contextlib.contextmanager
def _run_backend(config: RunConfig, role: str) -> Iterator[tuple[CriticBackend, dict[str, Iterable[str]]]]:
    """The command's one backend, and the files it leaves in ``OUT``: each name put in the dict is
    written with its lines when the block ends, by return or by abort; a failed call or replay miss
    that reaches the block aborts the run (exit 3). Commands read their inputs first, so an input
    error leaves ``OUT`` as it was. ``--record`` opens ``OUT/transcript.jsonl`` before the first call,
    which writes its line when it finishes; it is closed however the command ends, Ctrl-C included."""
    backend = build_backend(config, role)
    _make_dir(config.out_dir)
    stream = contextlib.nullcontext()
    if config.record:
        path = config.out_dir / "transcript.jsonl"
        try:
            stream = path.open("w", encoding="utf-8")
        except OSError as exc:
            raise CLIError(f"cannot write transcript {path}: {exc}") from exc
        backend = RecordingBackend(backend, Transcript(stream=stream))
    files: dict[str, Iterable[str]] = {}
    try:
        with stream:
            yield backend, files
    except (ReplayMiss, BackendError) as exc:
        raise CLIError(str(exc), 3) from exc
    finally:
        for name, lines in files.items():
            _write(config.out_dir / name, lines)


def _make_dir(path: Path) -> None:
    """Create the output directory ``path``; a failure exits 2, naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CLIError(f"cannot create output directory {path}: {exc}") from exc


def _write(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path``; a failed open or write exits 2, naming it."""
    try:
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(lines)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _json_lines(data: dict) -> list[str]:
    return [json.dumps(data, indent=2, ensure_ascii=False) + "\n"]


def _gradient_lines(history: RunHistory) -> Iterator[str]:
    """One ``gradients.jsonl`` line per round. A round past the fixed point
    is the previous round's tuple (see :func:`optimize`), so the JSON after
    its ``"iteration"`` is reused."""
    for index, (updates, previous) in enumerate(zip(history.updates, (None, *history.updates))):
        if updates is not previous:
            tail = json.dumps({
                "gradients": [{
                    "target": u.gradient.target.value, "directives": list(u.gradient.directives),
                    "critic_identity": u.gradient.critic_identity, "removed": u.removed,
                    "truncated": u.truncated, "saturated": u.saturated,
                } for u in updates],
                "failures": [{"section": u.gradient.target.value, "reason": u.failure} for u in updates if u.failure],
            }, ensure_ascii=False)[1:]
        yield f'{{"iteration": {index}, {tail}\n'


def _history_lines(states: tuple[PromptState, ...]) -> Iterator[str]:
    """One ``history.jsonl`` line per state. A section carried over unchanged
    is the previous state's object, so its JSON is reused, keyed by id: the
    tuple keeps every section alive, so no id is reused meanwhile."""
    encoded: dict[int, str] = {}
    for state in states:
        encoded = {
            id(s): encoded.get(id(s)) or json.dumps(
                {"kind": s.kind.value, "content": s.content, "provenance": s.provenance.value}, ensure_ascii=False
            )
            for s in state.sections
        }
        head = {"iteration": state.iteration, "digest": state.digest, "parent_digest": state.parent_digest}
        yield f'{json.dumps(head, ensure_ascii=False)[:-1]}, "sections": [{", ".join(encoded.values())}]}}\n'


def _run_artifacts(history: RunHistory) -> dict[str, Iterable[str]]:
    metrics = {
        "iterations": history.iterations,
        "digests": list(history.digests),
        "failure_count": sum(len(round_) for round_ in history.failures),
        "growth": growth_metrics(history),
    }
    return {
        "history.jsonl": _history_lines(history.states),
        "gradients.jsonl": _gradient_lines(history),
        "metrics.json": _json_lines(metrics),
        "final_prompt.txt": [render_prompt(history.final)],
    }


def cmd_decompose(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    text, template = _read_text(Path(args.input)), config.template("decompose")
    if not text.strip():
        raise CLIError("decomposition failed: cannot decompose an empty prompt")
    with _run_backend(config, "extractor") as (extractor, files):
        try:
            state = decompose_unstructured(text, extractor, template=template)
        except SchemaError as exc:
            raise CLIError(f"decomposition failed: {exc}") from exc
        files["decomposed_prompt.txt"] = [render_prompt(state)]
    for section in state.sections:
        marker = " (empty)" if section.is_empty else ""
        print(f"{section.kind.display_name}: {section.provenance.value}{marker}")
    print(f"wrote {config.out_dir / 'decomposed_prompt.txt'}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    state, optimizer_config = _load_state(Path(args.input)), config.optimizer_config()
    gradient, consolidate = config.template("gradient"), config.template("consolidate")
    with _run_backend(config, "critic") as (critic, files):
        try:
            history = optimize(
                state, critic, optimizer_config, gradient_template=gradient, consolidate_template=consolidate
            )
        except OptimizationAborted as exc:
            files.update(_run_artifacts(exc.history))
            raise CLIError(f"{exc}\npartial artifacts kept in {config.out_dir}", 3) from exc
        files.update(_run_artifacts(history))
    initial, final = history.initial, history.final
    print(f"iterations: {history.iterations}")
    print(f"tokens: {initial.total_tokens} -> {final.total_tokens}")
    skipped = sum(update.saturated for round_ in history.updates for update in round_)
    print(f"saturated section updates (not critiqued): {skipped}")
    print(f"final digest: {final.digest}")
    print(f"wrote {config.out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    state, template = _load_state(Path(args.prompt)), config.template("question")
    try:
        dataset = load_dataset(Path(args.dataset), config.dataset_format, split=config.split)
    except (DatasetError, OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise CLIError(f"cannot load dataset {args.dataset}: {exc}") from exc
    if not dataset.items:
        raise CLIError(f"dataset {args.dataset} has no items")
    if config.limit is not None:
        dataset = sample_items(dataset, config.limit, config.seed)
    with _run_backend(config, "solver") as (solver, files):
        try:
            result = evaluate(state, dataset, solver, concurrency=config.concurrency, template=template)
        except EvaluationAborted as exc:
            files["eval_result.partial.json"] = _json_lines(exc.result.to_dict())
            raise CLIError(f"{exc}\npartial result kept in {config.out_dir / 'eval_result.partial.json'}", 3) from exc
        files["eval_result.json"] = _json_lines(data := result.to_dict())
    print(f"accuracy: {result.accuracy * 100:.2f}%")
    if result.unparseable:
        print(f"unparseable: {result.unparseable}/{result.total}")
    for subject, counts in data.get("per_subject", {}).items():
        print(f"{subject}: {counts['accuracy'] * 100:.2f}%")
    print(f"wrote {config.out_dir / 'eval_result.json'}")
    return 0


def _result_labels(paths: list[Path]) -> list[str]:
    """Each file's stem; if two collide, its parent-qualified stem; if those collide too, its path."""
    for labels in ([path.stem for path in paths], [f"{path.absolute().parent.name}/{path.stem}" for path in paths]):
        if len(set(labels)) == len(labels):
            return labels
    return [str(path) for path in paths]


def cmd_compare(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.results]
    if len(paths) < 2:
        raise CLIError("compare needs at least two result files")
    for index, given in enumerate(args.results):
        with contextlib.suppress(OSError):  # a missing file is reported when it is read
            if any(os.path.samefile(given, earlier) for earlier in args.results[:index]):
                raise CLIError(f"{given} is given twice")
    results = []
    for label, path in zip(_result_labels(paths), paths):
        try:
            data = json.loads(_read_text(path))
            results.append((label, EvalResult.from_dict(data)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CLIError(f"{path} is not an evaluation result file: {exc}") from exc
    try:
        comparison = Comparison(tuple(results))
    except DatasetMismatch as exc:
        raise CLIError(str(exc)) from exc
    print(comparison.to_text())
    if args.out:
        _make_dir(out_dir := Path(args.out))
        path = out_dir / "comparison.json"
        _write(path, _json_lines(comparison.to_dict()))
        print(f"wrote {path}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    state_a = _load_state(Path(args.a))
    state_b = _load_state(Path(args.b))
    report = diff_states(state_a, state_b)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    else:
        print(report.to_text())
    return 1 if report.changed else 0


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads; the three that call a model share the run flags."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", metavar="PATH", help="INI config file; flags override it")
    run.add_argument("--out", metavar="DIR", help="output directory (default mpo-run)")
    run.add_argument("--record", action="store_true", help="write each backend call to OUT/transcript.jsonl")
    run.add_argument("--replay", metavar="PATH", help="serve backend calls from a recorded transcript")
    run.add_argument("--mock", action="store_true", help="use the deterministic mock backends")
    run.add_argument("--live", action="store_true", help="use the HTTP backends")

    parser = argparse.ArgumentParser(
        prog="mpo",
        description="Section-wise prompt refinement and multiple-choice evaluation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    decompose = commands.add_parser("decompose", parents=[run], help="structure a free-form prompt into tagged sections")
    decompose.add_argument("input", help="prompt file, free-form or already tagged")
    decompose.set_defaults(func=cmd_decompose)

    optimize_cmd = commands.add_parser("optimize", parents=[run], help="run the refinement loop on a structured prompt")
    optimize_cmd.add_argument("input", help="structured prompt file")
    optimize_cmd.add_argument("--iterations", type=int, metavar="N", help="refinement iterations")
    optimize_cmd.add_argument("--concurrency", type=int, metavar="N", help="section updates run at once")
    optimize_cmd.add_argument("--dedup", choices=[m.value for m in DedupMode], help="de-duplication mode after each update")
    optimize_cmd.set_defaults(func=cmd_optimize)

    eval_cmd = commands.add_parser("eval", parents=[run], help="score a structured prompt on a dataset")
    eval_cmd.add_argument("prompt", help="structured prompt file")
    eval_cmd.add_argument("dataset", help="dataset file")
    eval_cmd.add_argument("--concurrency", type=int, metavar="N", help="items run at once")
    eval_cmd.add_argument("--format", choices=DATASET_FORMATS, help="dataset file format")
    eval_cmd.add_argument("--split", help="split label recorded in the result")
    eval_cmd.add_argument("--limit", type=int, metavar="N", help="evaluate at most N sampled items")
    eval_cmd.add_argument("--seed", type=int, metavar="N", help="seed for dataset sampling")
    eval_cmd.set_defaults(func=cmd_eval)

    compare_cmd = commands.add_parser("compare", help="compare evaluation result files")
    compare_cmd.add_argument("results", nargs="+", help="two or more result files")
    compare_cmd.add_argument("--out", metavar="DIR", help="also write DIR/comparison.json")
    compare_cmd.set_defaults(func=cmd_compare)

    diff_cmd = commands.add_parser("diff", help="per-section diff of two structured prompts")
    diff_cmd.add_argument("a", help="baseline prompt file")
    diff_cmd.add_argument("b", help="changed prompt file")
    diff_cmd.add_argument("--json", action="store_true", help="emit the diff as JSON")
    diff_cmd.set_defaults(func=cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"{'aborted' if exc.code == 3 else 'error'}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
