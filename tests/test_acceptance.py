"""Acceptance suite: one test per release criterion, timing bounds included.

Each test prints an ``ACCEPTANCE n PASS`` line on success (visible with
``pytest -s``); under ``pytest -v`` the per-test PASSED/FAILED lines serve
the same purpose. Criterion 10 is an optional live smoke check, skipped
unless the environment provides a live endpoint; it reports directionality
without asserting it.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

import strategies as local
from mpo import (
    CANONICAL_ORDER,
    Comparison,
    EvalResult,
    ItemRecord,
    MockCritic,
    OptimizerConfig,
    SectionKind,
    evaluate,
    extract_answer,
    lexical_dedup,
    load_dataset,
    optimize,
    parse_structured_prompt,
    render_prompt,
    step,
)
from mpo.cli import main
from solvers import scored_solver


@pytest.fixture
def clock():
    start = time.monotonic()
    yield lambda: time.monotonic() - start


def test_01_schema_fixity(clock):
    """200 fuzzed mock-critic runs keep 5 canonical sections in every state."""
    rng = random.Random(101)
    for _ in range(200):
        overrides = {}
        for kind in CANONICAL_ORDER:
            roll = rng.random()
            if roll < 0.3:
                overrides[kind] = ()
            elif roll < 0.6:
                overrides[kind] = tuple(
                    local.seeded_directive(rng) for _ in range(rng.randint(1, 3))
                )
        critic = MockCritic(overrides)
        config = OptimizerConfig(iterations=rng.randint(0, 5))
        history = optimize(local.seeded_state(rng), critic, config)
        for state in history.states:
            assert len(state.sections) == 5
            assert tuple(s.kind for s in state.sections) == CANONICAL_ORDER
    elapsed = clock()
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"
    print("ACCEPTANCE 1 PASS")


def test_02_round_trip(clock, data_dir):
    """parse(render(state)) is the identity on 100 fuzzed states + fixture."""
    rng = random.Random(202)
    for _ in range(100):
        state = local.seeded_state(rng)
        rendered = render_prompt(state)
        reparsed = parse_structured_prompt(rendered)
        assert reparsed.contents() == state.contents()
        assert render_prompt(reparsed) == rendered
    fixture = (data_dir / "multi_task_tagged.txt").read_text(encoding="utf-8")
    assert render_prompt(parse_structured_prompt(fixture)) == fixture
    elapsed = clock()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    print("ACCEPTANCE 2 PASS")


def test_03_locality(clock, build_state):
    """A critic touching one section leaves the other four byte-identical."""
    initial = build_state(
        system_role="You are a careful assistant.",
        relevant_context="Questions span many subjects.",
        task_details="Answer each question.",
        constraints="Keep replies short.",
        output_format="End with the answer letter.",
    )
    for active in CANONICAL_ORDER:
        overrides = {kind: () for kind in CANONICAL_ORDER if kind is not active}
        history = optimize(initial, MockCritic(overrides), OptimizerConfig(iterations=5))
        assert history.iterations == 5
        for state in history.states[1:]:
            for kind in CANONICAL_ORDER:
                if kind is active:
                    continue
                assert state.section(kind).content == initial.section(kind).content
            assert state.section(active).content != initial.section(active).content
    elapsed = clock()
    assert elapsed < 5.0, f"took {elapsed:.2f}s, bound is 5s"
    print("ACCEPTANCE 3 PASS")


def test_04_dedup_properties(clock, build_state):
    """lexical_dedup is idempotent; repeated directives stop adding tokens."""
    rng = random.Random(404)
    for _ in range(1000):
        text = local.seeded_text(rng)
        once = lexical_dedup(text)
        assert lexical_dedup(once) == once

    initial = build_state(task_details="Answer each question.")
    history = optimize(initial, MockCritic(), OptimizerConfig(iterations=5))
    totals = [state.total_tokens for state in history.states]
    for before, after in zip(totals[1:], totals[2:]):
        assert after <= before, f"token counts grew after iteration 1: {totals}"
    elapsed = clock()
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"
    print("ACCEPTANCE 4 PASS")


def test_05_synchronous_update(clock):
    """Section processing order never changes the produced state."""
    rng = random.Random(505)
    for _ in range(50):
        state = local.seeded_state(rng)
        overrides = {
            kind: tuple(local.seeded_directive(rng) for _ in range(rng.randint(0, 2)))
            for kind in CANONICAL_ORDER
        }
        critic = MockCritic(overrides)
        order = list(CANONICAL_ORDER)
        rng.shuffle(order)
        canonical = step(state, critic).state.digest
        permuted = step(state, critic, process_order=tuple(order)).state.digest
        assert permuted == canonical
    elapsed = clock()
    assert elapsed < 5.0, f"took {elapsed:.2f}s, bound is 5s"
    print("ACCEPTANCE 5 PASS")


def test_06_replay_determinism(clock, tmp_path, data_dir):
    """A recorded 3-iteration run replays to byte-identical artifacts."""
    prompt = tmp_path / "prompt.txt"
    prompt.write_text(
        (data_dir / "multi_task_tagged.txt").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    recorded = tmp_path / "recorded"
    replayed = tmp_path / "replayed"
    base = ["optimize", str(prompt), "--iterations", "3"]
    assert main(base + ["--out", str(recorded), "--record"]) == 0
    assert (
        main(base + ["--out", str(replayed), "--replay", str(recorded / "transcript.jsonl")])
        == 0
    )

    def digests(run_dir: Path) -> list[str]:
        lines = (run_dir / "history.jsonl").read_text(encoding="utf-8").splitlines()
        return [json.loads(line)["digest"] for line in lines]

    assert digests(replayed) == digests(recorded)
    assert (replayed / "final_prompt.txt").read_bytes() == (
        recorded / "final_prompt.txt"
    ).read_bytes()
    elapsed = clock()
    assert elapsed < 5.0, f"took {elapsed:.2f}s, bound is 5s"
    print("ACCEPTANCE 6 PASS")


def test_07_evaluation_oracle(clock, data_dir, tagged_prompt):
    """A scripted 7-of-10 solver scores exactly 0.700, recount included."""
    dataset = load_dataset(data_dir / "mcq_ten.jsonl", "generic_jsonl")
    assert len(dataset.items) == 10
    correct_ids = {item.id for item in dataset.items[:7]}
    result = evaluate(tagged_prompt, dataset, scored_solver(dataset, correct_ids))
    assert result.accuracy == 0.700
    recount = sum(1 for record in result.records if record.extracted == record.gold)
    assert recount == result.correct == 7
    assert recount / len(result.records) == result.accuracy
    elapsed = clock()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    print("ACCEPTANCE 7 PASS")


def test_08_extraction_fixtures(clock, data_dir):
    """All 20 hand-labeled responses extract to their labeled letter."""
    cases = json.loads(
        (data_dir / "extraction_cases.json").read_text(encoding="utf-8")
    )
    assert len(cases) == 20
    agreements = 0
    for case in cases:
        got = extract_answer(case["response"], frozenset(case["valid"]))
        assert got == case["expected"], (
            f"response {case['response']!r}: got {got!r}, "
            f"labeled {case['expected']!r} ({case['note']})"
        )
        agreements += 1
    assert agreements == 20
    elapsed = clock()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    print("ACCEPTANCE 8 PASS")


def test_09_comparison_formatting(clock):
    """Accuracies 0.750 and 0.791 format as 75.00 / 79.10 with delta +4.10."""

    def synthetic(correct_count: int) -> EvalResult:
        records = tuple(
            ItemRecord(
                id=f"item-{i:04d}",
                raw_response="Answer: A" if i < correct_count else "Answer: B",
                extracted="A" if i < correct_count else "B",
                gold="A",
                correct=i < correct_count,
            )
            for i in range(1000)
        )
        return EvalResult("synthetic", "test", "digest", records)

    baseline = synthetic(750)
    tuned = synthetic(791)
    assert baseline.accuracy == 0.750
    assert tuned.accuracy == 0.791
    payload = Comparison((("untuned", baseline), ("optimized", tuned))).to_dict()
    assert payload["rows"][0]["accuracy_pct"] == "75.00"
    assert payload["rows"][1]["accuracy_pct"] == "79.10"
    assert payload["rows"][1]["delta_pct"] == "+4.10"
    rendered = f"{payload['rows'][0]['accuracy_pct']} / {payload['rows'][1]['accuracy_pct']}, delta {payload['rows'][1]['delta_pct']}"
    assert rendered == "75.00 / 79.10, delta +4.10"
    elapsed = clock()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    print("ACCEPTANCE 9 PASS")


@pytest.mark.skipif(
    not os.environ.get("MPO_LIVE_SMOKE"),
    reason="live smoke check runs only with MPO_LIVE_SMOKE=1 and a live endpoint",
)
def test_10_live_smoke(tmp_path, data_dir):
    """Optional: live eval of untuned vs optimized prompts on an ARC file.

    Needs MPO_LIVE_SMOKE=1, MPO_BASE_URL (and MPO_API_KEY if the endpoint
    wants one). MPO_SMOKE_DATASET may point at a larger ARC-format file;
    the bundled sample is the fallback. Directionality is printed, never
    asserted.
    """
    dataset = os.environ.get("MPO_SMOKE_DATASET", str(data_dir / "arc_sample.jsonl"))
    prompt = tmp_path / "prompt.txt"
    prompt.write_text(
        (data_dir / "multi_task_tagged.txt").read_text(encoding="utf-8"),
        encoding="utf-8",
    )

    opt_out = tmp_path / "opt"
    assert (
        main(
            [
                "optimize",
                str(prompt),
                "--live",
                "--iterations",
                "2",
                "--out",
                str(opt_out),
            ]
        )
        == 0
    )

    untuned_out = tmp_path / "untuned"
    tuned_out = tmp_path / "tuned"
    eval_args = [
        str(dataset),
        "--live",
        "--format",
        "arc_jsonl",
        "--limit",
        "50",
        "--seed",
        "0",
    ]
    assert main(["eval", str(prompt)] + eval_args + ["--out", str(untuned_out)]) == 0
    assert (
        main(
            ["eval", str(opt_out / "final_prompt.txt")]
            + eval_args
            + ["--out", str(tuned_out)]
        )
        == 0
    )

    assert (
        main(
            [
                "compare",
                str(untuned_out / "eval_result.json"),
                str(tuned_out / "eval_result.json"),
                "--out",
                str(tmp_path / "cmp"),
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))
    untuned_acc = report["rows"][0]["accuracy"]
    tuned_acc = report["rows"][1]["accuracy"]
    direction = "improved" if tuned_acc >= untuned_acc else "regressed"
    print(
        f"live smoke: untuned {untuned_acc:.3f}, optimized {tuned_acc:.3f} ({direction})"
    )
    print("ACCEPTANCE 10 PASS")
