"""Spans around calls into mpo's layers, recorded from outside the program.

``Tracer.install`` swaps each traced public function, method and property of
mpo for a wrapper that records a span (name, start, end, parent span, run id)
in memory, and ``uninstall`` puts the originals back. Spans opened on a fan-out
worker thread take as parent the span the main thread is inside, which is
the call that started the fan-out. Nothing is written until the run ends.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import mpo
import mpo.cli  # the package does not import its CLI; traced like the other layers
from mpo import backends, schema, templating
from standin import StandIn

# Module-level functions: every mpo module that imported one of these by name
# gets the wrapper under that name.
FUNCTIONS = {
    ("schema", "render_prompt"): "schema.render",
    ("schema", "section_context"): "schema.section_context",
    ("schema", "parse_structured_prompt"): "schema.parse",
    ("critic", "request_gradient"): "critic.request_gradient",
    ("critic", "consolidate"): "critic.consolidate",
    ("optimizer", "optimize"): "optimizer.optimize",
    ("optimizer", "step"): "optimizer.step",
    ("optimizer", "apply_gradient"): "optimizer.apply_gradient",
    ("optimizer", "lexical_dedup"): "optimizer.lexical_dedup",
    ("optimizer", "growth_metrics"): "optimizer.growth_metrics",
    ("evaluation", "load_dataset"): "evaluation.load_dataset",
    ("evaluation", "evaluate"): "evaluation.evaluate",
    ("evaluation", "pose_question"): "evaluation.pose_question",
    ("evaluation", "extract_answer"): "evaluation.extract_answer",
    ("backends", "request_digest"): "backends.request_digest",
    ("cli", "main"): "cli.main",
}
METHODS = (
    (schema.Section, "__post_init__", "schema.section_new"),
    (schema.PromptState, "digest", "schema.digest"),
    (templating.PromptTemplate, "fill", "templating.fill"),
    (backends.Transcript, "save", "backends.transcript_save"),
    (backends.Transcript, "load", "backends.transcript_load"),
    (backends.RecordingBackend, "complete", "backends.recording"),
    (backends.ReplayBackend, "complete", "backends.replay"),
    (StandIn, "complete", "standin.call"),
)
LAYERS = ("schema", "critic", "optimizer", "evaluation", "backends", "templating", "cli", "standin", "bench")

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id: int | None = None
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "mpo" or key.startswith("mpo.")]
        for (module_name, attr), span_name in FUNCTIONS.items():
            original = getattr(getattr(mpo, module_name), attr)
            wrapper = self.wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for owner, attr, span_name in METHODS:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self.wrap(original.fget, span_name))
            elif isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, span_name))
            else:
                wrapped = self.wrap(original, span_name)
            self._patch(owner, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def span_stats(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the part of it that its child spans
    cover (children on fan-out threads may overlap, so their union counts).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        duration = span[END] - span[START]
        inner = [
            (max(lo, span[START]), min(hi, span[END]))
            for lo, hi in children.get(id(span), ())
            if hi > span[START] and lo < span[END]
        ]
        entry = stats[span[NAME]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - _union(inner)
    return stats


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def attribute(spans: list[list]) -> dict[str, float]:
    """Split wall time among layers: every instant goes to the spans that are
    open then and have no open child, shared equally when several run at once
    on fan-out threads. The shares add up to the root span's duration."""
    index = {id(span): i for i, span in enumerate(spans)}
    depth = [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        while parent is not None and id(parent) in index:
            depth[i] += 1
            parent = parent[PARENT]
    events = []
    for i, span in enumerate(spans):
        events.append((span[START], 1, depth[i], i))
        events.append((span[END], 0, -depth[i], i))
    events.sort()
    open_children: dict[int, int] = {}
    leaves: dict[int, str] = {}
    shares = dict.fromkeys(LAYERS, 0.0)
    previous = None
    for moment, starting, _, i in events:
        if previous is not None and leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for layer in leaves.values():
                shares[layer] += share
        previous = moment
        span = spans[i]
        parent = span[PARENT]
        parent_i = index.get(id(parent)) if parent is not None else None
        if parent_i is not None and parent_i not in open_children:
            parent_i = None
        if starting:
            if parent_i is not None:
                open_children[parent_i] += 1
                leaves.pop(parent_i, None)
            open_children[i] = 0
            leaves[i] = layer_of(span[NAME])
        else:
            open_children.pop(i, None)
            leaves.pop(i, None)
            if parent_i is not None:
                open_children[parent_i] -= 1
                if not open_children[parent_i]:
                    leaves[parent_i] = layer_of(parent[NAME])
    return shares


def concurrency(spans: list[list]) -> tuple[float, int]:
    """Mean number of open spans while at least one is open, and the peak."""
    if not spans:
        return 0.0, 0
    events = sorted([(s[START], 1) for s in spans] + [(s[END], -1) for s in spans])
    level = peak = 0
    busy = weighted = 0.0
    previous = events[0][0]
    for moment, step in events:
        if level:
            busy += moment - previous
            weighted += level * (moment - previous)
        level += step
        peak = max(peak, level)
        previous = moment
    return (weighted / busy if busy else float(peak)), peak
