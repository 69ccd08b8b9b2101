"""The three workloads: set-up, one timed repetition, and its output check.

Each repetition is one call a user would make: ``optimize`` in-process with
recording on (refine_llm), ``mpo optimize --replay`` through ``cli.main``
(refine_replay), or ``load_dataset`` plus ``evaluate`` plus writing the
result (eval_mcq). A repetition whose output check fails counts every op it
made as failed; an op is one section update or one item.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import mpo
import mpo.cli

import gen
from standin import StandIn, role_of

SECTIONS = 5


@dataclass
class Rep:
    """Outcome of one timed repetition."""

    wall_s: float
    ops: int
    failed: int
    calls: Counter
    tokens: int
    error: str = ""
    counters: dict = field(default_factory=dict)


class TruncationCounter(logging.Handler):
    """Counts the optimizer's truncation warnings and prints nothing.

    Installed on the root logger before the CLI runs, it also turns the CLI's
    ``logging.basicConfig`` into a no-op, so timings do not depend on where
    stderr goes. Log records are still made, as in any run.
    """

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.truncated = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.name == "mpo.optimizer" and "truncated" in record.msg:
            self.truncated += 1


@contextlib.contextmanager
def timed(tracer):
    """Times the block; when tracing, the block is the repetition's root span."""
    span = tracer.open("bench.rep") if tracer else None
    clock = [0.0]
    started = time.perf_counter()
    try:
        yield clock
    finally:
        clock[0] = time.perf_counter() - started
        if span:
            tracer.close(span)


def directive_stats(states: list[dict], rounds: list[dict]) -> tuple[int, int]:
    """(directives proposed, directives that appear as new lines in the next
    state). ``states[i]`` maps section to content; ``rounds[i]`` maps section
    to the directives proposed against ``states[i]``."""
    proposed = kept = 0
    for index, directives in enumerate(rounds):
        for kind, lines in directives.items():
            proposed += len(lines)
            before = Counter(states[index][kind].splitlines())
            after = Counter(states[index + 1][kind].splitlines())
            for line, count in Counter(lines).items():
                kept += min(count, max(0, after[line] - before[line]))
    return proposed, kept


def refine(seed: int, iterations: int, critic: mpo.CriticBackend) -> mpo.RunHistory:
    """Set-up refine run: lexical dedup, width 1, no latency."""
    config = mpo.OptimizerConfig(iterations=iterations, dedup_mode=mpo.DedupMode.LEXICAL)
    return mpo.optimize(mpo.parse_structured_prompt(gen.initial_prompt(seed)), critic, config)


class Workload:
    name = ""
    ops_per_rep = 0

    def __init__(self, seed: int, workdir: Path, log: TruncationCounter) -> None:
        self.seed = seed
        self.workdir = workdir
        self.log = log

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer=None) -> Rep:
        truncated = self.log.truncated
        started = time.perf_counter()
        try:
            rep = self._run(tracer)
        except Exception:  # the repetition failed; report it, keep measuring
            error = traceback.format_exc().strip()
            rep = Rep(time.perf_counter() - started, self.ops_per_rep, self.ops_per_rep, Counter(), 0, error)
        rep.counters["sections_truncated"] = self.log.truncated - truncated
        return rep

    def _run(self, tracer) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        pass


class RefineLLM(Workload):
    """Latency-bound: critiques fan out at width 5, and every update waits on
    a consolidation call."""

    name = "refine_llm"
    ITERATIONS = 8
    WIDTH = 5
    LATENCY = 0.020
    ops_per_rep = ITERATIONS * SECTIONS

    def config(self, width: int) -> mpo.OptimizerConfig:
        return mpo.OptimizerConfig(
            iterations=self.ITERATIONS, dedup_mode=mpo.DedupMode.LLM, concurrency_width=width
        )

    def setup(self) -> None:
        self.prompt = gen.initial_prompt(self.seed)
        stream = gen.DirectiveStream(self.seed, new=3, repeats=1)
        # Oracle: the same run at width 1 without latency. Processing-order
        # independence means the timed run must reproduce its digest chain.
        oracle = mpo.optimize(mpo.parse_structured_prompt(self.prompt), StandIn(0.0, stream), self.config(1))
        self.expected = oracle.digests
        self.standin = StandIn(self.LATENCY, stream)
        self.transcript_path = self.workdir / "transcript.jsonl"

    def _run(self, tracer) -> Rep:
        self.standin.reset()
        with timed(tracer) as clock:
            state = mpo.parse_structured_prompt(self.prompt)
            transcript = mpo.Transcript()
            history = mpo.optimize(state, mpo.RecordingBackend(self.standin, transcript), self.config(self.WIDTH))
            transcript.save(self.transcript_path)
        error = "" if history.digests == self.expected else "digest chain differs from the width-1 run"
        failed = self.ops_per_rep if error else sum(len(round_) for round_ in history.failures)
        rep = Rep(clock[0], self.ops_per_rep, failed, Counter(self.standin.calls), self.standin.tokens, error)
        if tracer:
            states = [{s.kind.value: s.content for s in state.sections} for state in history.states]
            rounds = [{g.target.value: list(g.directives) for g in round_} for round_ in history.gradients]
            rep.counters.update(zip(("directives_proposed", "directives_kept"), directive_stats(states, rounds)))
            rep.counters["transcript_bytes"] = self.transcript_path.stat().st_size
            rep.counters["standin_s"] = self.standin.own_s
        return rep


class RefineReplay(Workload):
    """CPU-bound: ``mpo optimize --replay`` at width 1, no latency, sections
    saturating the token budget so truncation fires on most later updates."""

    name = "refine_replay"
    ITERATIONS = 60
    ops_per_rep = ITERATIONS * SECTIONS

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Pass-through call log on the replay backend: it keeps a reference to
        # each request so calls and tokens are counted after the clock stops.
        self.requests: list = []
        self._original = mpo.ReplayBackend.__dict__["complete"]
        requests, original = self.requests, self._original

        def complete(backend, turns, params):
            requests.append(turns)
            return original(backend, turns, params)

        mpo.ReplayBackend.complete = complete

    def close(self) -> None:
        mpo.ReplayBackend.complete = self._original

    def setup(self) -> None:
        self.prompt_path = self.workdir / "prompt.txt"
        self.transcript_path = self.workdir / "transcript.jsonl"
        self.out_dir = self.workdir / "run"
        self.prompt_path.write_text(gen.initial_prompt(self.seed), encoding="utf-8")
        transcript = mpo.Transcript()
        critic = StandIn(0.0, gen.DirectiveStream(self.seed, new=4, repeats=1))
        history = refine(self.seed, self.ITERATIONS, mpo.RecordingBackend(critic, transcript))
        transcript.save(self.transcript_path)
        self.expected_digests = list(history.digests)
        self.expected_final = mpo.render_prompt(history.final)

    def _run(self, tracer) -> Rep:
        self.requests.clear()
        argv = [
            "optimize", str(self.prompt_path), "--replay", str(self.transcript_path),
            "--dedup", "lexical", "--iterations", str(self.ITERATIONS), "--out", str(self.out_dir),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with timed(tracer) as clock, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = mpo.cli.main(argv)
        calls = Counter(role_of(turns[-1].content) for turns in self.requests)
        tokens = sum(mpo.token_count(turn.content) for turns in self.requests for turn in turns)
        if code != 0:
            error = f"mpo optimize --replay exited {code}: {stderr.getvalue().strip()[-300:]}"
            return Rep(clock[0], self.ops_per_rep, self.ops_per_rep, calls, tokens, error)
        metrics = json.loads((self.out_dir / "metrics.json").read_text(encoding="utf-8"))
        final = (self.out_dir / "final_prompt.txt").read_text(encoding="utf-8")
        error = ""
        if metrics["digests"] != self.expected_digests:
            error = "metrics.json digests differ from the recording"
        elif final != self.expected_final:
            error = "final_prompt.txt differs from the recording"
        failed = self.ops_per_rep if error else metrics["failure_count"]
        rep = Rep(clock[0], self.ops_per_rep, failed, calls, tokens, error)
        if tracer:
            rep.counters.update(zip(("directives_proposed", "directives_kept"), self._directive_stats()))
        return rep

    def _directive_stats(self) -> tuple[int, int]:
        def lines(name: str) -> list[dict]:
            text = (self.out_dir / name).read_text(encoding="utf-8")
            return [json.loads(line) for line in text.splitlines() if line.strip()]

        states = [{s["kind"]: s["content"] for s in state["sections"]} for state in lines("history.jsonl")]
        rounds = [{g["target"]: g["directives"] for g in round_["gradients"]} for round_ in lines("gradients.jsonl")]
        return directive_stats(states, rounds)


class EvalMCQ(Workload):
    """Many short calls: 1,500 four-choice items at concurrency 4, scored
    against a saturated prompt of about 4,000 tokens."""

    name = "eval_mcq"
    ITEMS = 1500
    CONCURRENCY = 4
    LATENCY = 0.002
    SATURATING_ITERATIONS = 20
    ops_per_rep = ITEMS

    def setup(self) -> None:
        self.prompt_path = self.workdir / "prompt.txt"
        self.dataset_path = self.workdir / "items.jsonl"
        self.result_path = self.workdir / "eval_result.json"
        self.mcq = gen.mcq_set(self.seed, self.ITEMS)
        self.dataset_path.write_text(self.mcq.jsonl, encoding="utf-8")
        critic = StandIn(0.0, gen.DirectiveStream(self.seed, new=4, repeats=1))
        saturated = refine(self.seed, self.SATURATING_ITERATIONS, critic).final
        self.prompt_path.write_text(mpo.render_prompt(saturated), encoding="utf-8")
        self.standin = StandIn(self.LATENCY, replies=self.mcq.replies)

    def _run(self, tracer) -> Rep:
        self.standin.reset()
        with timed(tracer) as clock:
            state = mpo.parse_structured_prompt(self.prompt_path.read_text(encoding="utf-8"))
            dataset = mpo.load_dataset(self.dataset_path, "generic_jsonl")
            result = mpo.evaluate(state, dataset, self.standin, concurrency=self.CONCURRENCY)
            span = tracer.open("evaluation.result_write") if tracer else None
            self.result_path.write_text(
                json.dumps(result.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
            )
            if span:
                tracer.close(span)
        expected = (self.mcq.total, self.mcq.correct, self.mcq.unparseable)
        got = (result.total, result.correct, result.unparseable)
        error = "" if got == expected else f"(total, correct, unparseable) = {got}, oracle says {expected}"
        failed = result.total if error else sum(1 for record in result.records if record.note)
        rep = Rep(clock[0], result.total, failed, Counter(self.standin.calls), self.standin.tokens, error)
        rep.counters["items"] = result.total
        if tracer:
            rep.counters["standin_s"] = self.standin.own_s
        return rep


WORKLOADS = {cls.name: cls for cls in (RefineLLM, RefineReplay, EvalMCQ)}
