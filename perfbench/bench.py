"""Measurement loop and reports.

Sets the workload up at least five times and for at least a second
(``setup_s`` is the median), runs one untimed warm-up repetition, then
repeats the workload in a closed loop on one main thread for
``--seconds``, checking every repetition's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones, with the tracing overhead. Human-readable lines come
first; the last line is one JSON object.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import spans
import workloads

# At least this many set-ups, and more until this much time has gone by, so
# that a set-up of a few milliseconds still gets a steady median.
SETUPS = 5
SETUP_SECONDS = 1.0

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("backend_calls", "count", "lower"),
    ("prompt_tokens_sent", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("backends.calls.critique", "count", "lower"),
    ("backends.calls.consolidate", "count", "lower"),
    ("backends.calls.solve", "count", "lower"),
    ("backends.wait_s", "s", "lower"),
    ("backends.inflight_mean", "calls", "higher"),
    ("backends.inflight_peak", "calls", "higher"),
    ("backends.request_digest_s", "s", "lower"),
    ("backends.request_digest_calls", "count", "lower"),
    ("backends.transcript_load_s", "s", "lower"),
    ("backends.replay_self_s", "s", "lower"),
    ("backends.transcript_save_s", "s", "lower"),
    ("backends.transcript_bytes", "bytes", "lower"),
    ("backends.standin_s", "s", "lower"),
    ("critic.request_gradient_self_s", "s", "lower"),
    ("critic.request_gradient_calls", "count", "lower"),
    ("critic.consolidate_self_s", "s", "lower"),
    ("critic.consolidate_calls", "count", "lower"),
    ("critic.directives_proposed", "count", "lower"),
    ("optimizer.step_s", "s", "lower"),
    ("optimizer.step_self_s", "s", "lower"),
    ("optimizer.apply_gradient_s", "s", "lower"),
    ("optimizer.lexical_dedup_s", "s", "lower"),
    ("optimizer.growth_metrics_s", "s", "lower"),
    ("optimizer.directives_kept_ratio", "ratio", "higher"),
    ("optimizer.sections_truncated", "count", "lower"),
    ("schema.render_calls", "count", "lower"),
    ("schema.render_s", "s", "lower"),
    ("schema.digest_calls", "count", "lower"),
    ("schema.digest_s", "s", "lower"),
    ("schema.section_context_s", "s", "lower"),
    ("schema.section_new_s", "s", "lower"),
    ("schema.parse_s", "s", "lower"),
    ("evaluation.pose_question_s", "s", "lower"),
    ("evaluation.render_per_item", "ratio", "lower"),
    ("evaluation.extract_answer_s", "s", "lower"),
    ("evaluation.result_write_s", "s", "lower"),
    ("evaluation.load_dataset_s", "s", "lower"),
    ("templating.fill_s", "s", "lower"),
    ("templating.fill_calls", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
) + tuple((f"{layer}.wall_attrib_s", "s", "lower") for layer in spans.LAYERS)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def measure(workload, seconds: float, tracer) -> tuple[list[float], list, list]:
    """Set up, warm up, then repeat until ``seconds`` have passed. With a
    tracer, every second repetition is traced. Returns the set-up times, the
    untraced repetitions and the traced ones."""
    setups: list[float] = []
    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    workload.run()  # warm-up: lazy template loading and first-call costs
    untraced, traced = [], []
    started = time.perf_counter()
    while not untraced or (tracer and not traced) or time.perf_counter() - started < seconds:
        if tracer and len(traced) < len(untraced):
            tracer.run_id = len(traced)
            tracer.install()
            try:
                traced.append(workload.run(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(workload.run())
    return setups, untraced, traced


def end_to_end(setups: list[float], reps: list) -> dict[str, float]:
    walls = [rep.wall_s for rep in reps]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median((rep.ops - rep.failed) / rep.wall_s for rep in reps),
        "backend_calls": statistics.median(sum(rep.calls.values()) for rep in reps),
        "prompt_tokens_sent": statistics.median(rep.tokens for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: spans.Tracer, untraced: list, traced: list) -> dict[str, float]:
    """Per-layer metrics, each the mean over the traced repetitions."""
    by_run: list[list] = [[] for _ in traced]
    for span in tracer.spans:
        by_run[span[spans.RUN]].append(span)
    rows = [rep_layers(run, rep) for run, rep in zip(by_run, traced)]
    values = {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
    values["trace.wall_s"] = statistics.median(row["trace.wall_s"] for row in rows)
    values["trace.untraced_wall_s"] = statistics.median(rep.wall_s for rep in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return {name: values[name] for name, _, _ in PER_LAYER}


def rep_layers(run: list, rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    stats = spans.span_stats(run)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def self_time(name):
        return stats[name][2] if name in stats else 0.0

    standin_calls = [span for span in run if span[spans.NAME] == "standin.call"]
    inflight_mean, inflight_peak = spans.concurrency(standin_calls)
    attributed = spans.attribute(run)
    wall = total("bench.rep")
    counters = rep.counters
    proposed = counters.get("directives_proposed", 0)
    items = counters.get("items", 0)
    steps = calls("optimizer.step")
    row = {
        "backends.calls.critique": rep.calls["critique"],
        "backends.calls.consolidate": rep.calls["consolidate"],
        "backends.calls.solve": rep.calls["solve"],
        "backends.wait_s": sum(span[spans.END] - span[spans.START] for span in standin_calls),
        "backends.inflight_mean": inflight_mean,
        "backends.inflight_peak": inflight_peak,
        "backends.request_digest_s": total("backends.request_digest"),
        "backends.request_digest_calls": calls("backends.request_digest"),
        "backends.transcript_load_s": total("backends.transcript_load"),
        "backends.replay_self_s": self_time("backends.replay"),
        "backends.transcript_save_s": total("backends.transcript_save"),
        "backends.transcript_bytes": counters.get("transcript_bytes", 0),
        "backends.standin_s": counters.get("standin_s", 0.0),
        "critic.request_gradient_self_s": self_time("critic.request_gradient"),
        "critic.request_gradient_calls": calls("critic.request_gradient"),
        "critic.consolidate_self_s": self_time("critic.consolidate"),
        "critic.consolidate_calls": calls("critic.consolidate"),
        "critic.directives_proposed": proposed,
        "optimizer.step_s": total("optimizer.step") / steps if steps else 0.0,
        "optimizer.step_self_s": self_time("optimizer.step"),
        "optimizer.apply_gradient_s": total("optimizer.apply_gradient"),
        "optimizer.lexical_dedup_s": total("optimizer.lexical_dedup"),
        "optimizer.growth_metrics_s": total("optimizer.growth_metrics"),
        "optimizer.directives_kept_ratio": counters.get("directives_kept", 0) / proposed if proposed else 0.0,
        "optimizer.sections_truncated": counters.get("sections_truncated", 0),
        "schema.render_calls": calls("schema.render"),
        "schema.render_s": total("schema.render"),
        "schema.digest_calls": calls("schema.digest"),
        "schema.digest_s": total("schema.digest"),
        "schema.section_context_s": total("schema.section_context"),
        "schema.section_new_s": total("schema.section_new"),
        "schema.parse_s": total("schema.parse"),
        "evaluation.pose_question_s": total("evaluation.pose_question"),
        "evaluation.render_per_item": calls("schema.render") / items if items else 0.0,
        "evaluation.extract_answer_s": total("evaluation.extract_answer"),
        "evaluation.result_write_s": total("evaluation.result_write"),
        "evaluation.load_dataset_s": total("evaluation.load_dataset"),
        "templating.fill_s": total("templating.fill"),
        "templating.fill_calls": calls("templating.fill"),
        "cli.main_s": total("cli.main"),
        # What main spends outside the run itself: argument and config
        # handling, building backends, and writing the artifacts.
        "cli.self_s": total("cli.main") - total("optimizer.optimize") - total("optimizer.growth_metrics")
        - total("backends.transcript_load") if calls("cli.main") else 0.0,
        "trace.wall_s": wall,
        "trace.accounted_ratio": 1 - attributed["bench"] / wall,
    }
    row.update({f"{layer}.wall_attrib_s": attributed[layer] for layer in spans.LAYERS})
    return row


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    q = (100 * (n - 10)) // n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(args) -> int:
    log = workloads.TruncationCounter()
    logging.getLogger().addHandler(log)
    work_root = Path(__file__).resolve().parent.parent / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, log)
    tracer = spans.Tracer() if args.trace else None
    try:
        setups, untraced, traced = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
        logging.getLogger().removeHandler(log)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    reps = untraced + traced
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for error in dict.fromkeys(rep.error for rep in reps if rep.error):
        print(f"check failed: {error}")
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions")
    if args.trace:
        metrics = per_layer(tracer, untraced, traced)
    else:
        metrics = end_to_end(setups, reps)
        walls = [rep.wall_s for rep in reps]
        tail = tail_percentile(walls)
        if tail:
            print(f"wall_s p{tail[0]} = {tail[1]:.6g} s (n = {len(walls)})")
        else:
            print(f"wall_s max = {max(walls):.6g} s (n = {len(walls)}, too few for a tail percentile)")
        if args.workload == "refine_llm":
            rounds = metrics["wall_s"] / (workload.LATENCY * workload.ITERATIONS)
            print(f"latency_rounds_per_iter = {rounds:.6g} rounds (ideal 2)")
        if args.workload == "eval_mcq":
            print(f"items_per_s = {metrics['ops_per_s']:.6g} 1/s (at {workload.ITEMS} items)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"ops_attempted = {attempted} count")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not any(rep.error for rep in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0
