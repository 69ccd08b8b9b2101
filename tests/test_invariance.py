"""Record/replay invariance: a run writes the same artifacts at any width and
whatever order its transcript's lines come in.

One matrix, driven through ``main`` in-process:

- commands: ``optimize`` under each dedup mode at ``max_section_tokens`` 800
  and 55 for 5 rounds, and at 20 for 6 rounds, where the counter's runs
  saturate every section by round 2 and repeat that round after it; and
  ``eval`` on a generated set of 40 items that asks each question twice
  under distinct ids;
- backends: the mocks, which answer equal requests alike, the mocks under
  :func:`solvers.counter`, which answers every call differently, and, for
  ``optimize`` only, ``flaky``: the mocks with every 7th call failing with
  a :class:`BackendError`, which the run absorbs and the transcript records;
- runs: each cell is recorded at width 1 (``record``), then run again with
  the mocks and ``--record`` at width 5 (``live``), and replayed at widths 1
  and 5 from the recorded transcript, from its lines reversed and from a
  seeded shuffle of them (``replay<width>-<order>``).

One more cell, ``eval-2000``, records a 2,000-item set of the same kind
with the mocks at width 1 and at width 8, for the recorded stream of many
short calls.

Every artifact of a run is compared byte for byte with the recording's, a
replay's too, since a replay names the critic its transcript logged. Every
transcript holds one line per backend call the run made, whose loaded records
dump back to the file's bytes, and a replay serves each of its lines once. A
wider run makes as many calls as the recording.

The matrix runs in one process; :func:`test_record_and_replay_in_fresh_processes`
records and replays ``eval-40`` in three more, each with its own hash seed and
cold caches, so output that follows set or dict order, or state one run
leaves for the next, shows as a difference. One of them records at width 5,
so the first recorded call, which loads ``datetime``, runs on a worker thread.

``flaky`` is left out at budget 20, and the counter and ``flaky`` from live
runs at width > 1, where which call is refused or numbered follows thread timing.
A replay serves each call the record logged for its purpose, one critique or
consolidation of one section in one round or one item's solve, so equal requests,
a question asked twice or a failed call asked again a round later, each get their own.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

from mpo.cli import main
from solvers import assert_redumps, assert_same_run, counter, fresh_python, hooked_backends, jsonl, refused, reordered

PROMPT = Path(__file__).parent / "data" / "multi_task_tagged.txt"
ITERATIONS = 5

COMMANDS = [
    *(f"optimize-{dedup}-{budget}" for dedup in ("lexical", "llm", "lexical_then_llm") for budget in (800, 55, 20)),
    "eval-40",
]


def runs(backend: str) -> Iterator[str]:
    """Each run of one cell."""
    yield "record"
    if backend == "mock":
        yield "live"
    for width in (1, 5):
        for order in ("recorded", "reversed", "shuffled"):
            yield f"replay{width}-{order}"


CELLS = [
    *(
        pytest.param(command, backend, run, id=f"{command}-{backend}-{run}")
        for command in COMMANDS
        for backend in ("mock", "counter", "flaky")
        if backend != "flaky" or command.startswith("optimize") and not command.endswith("-20")
        for run in runs(backend)
    ),
    pytest.param("eval-2000", "mock", "record", id="eval-2000-mock-record"),
    pytest.param("eval-2000", "mock", "live", id="eval-2000-mock-live"),
]


HOOKS = {"mock": None, "counter": counter, "flaky": refused(range(7, sys.maxsize, 7))}


def run_cli(argv: list[str], out: Path, backend: str) -> int:
    """``mpo <argv> --out OUT``, a mock run's calls hooked by ``backend``;
    the number of backend calls the run made."""
    with hooked_backends(HOOKS[backend] if "--mock" in argv else None) as (_, calls):
        assert main([*argv, "--out", str(out)]) == 0
    return len(calls)


def command_argv(command: str, data: Path) -> list[str]:
    name, *rest = command.split("-")
    if name == "optimize":
        dedup, budget = rest
        config = data / f"budget{budget}.ini"
        config.write_text(f"[optimizer]\nmax_section_tokens = {budget}\n", encoding="utf-8")
        rounds = ITERATIONS + (budget == "20")
        return ["optimize", str(PROMPT), "--dedup", dedup, "--iterations", str(rounds), "--config", str(config)]
    size = int(rest[0])
    items = data / f"items{size}.jsonl"
    with items.open("w", encoding="utf-8") as handle:
        for n in range(size):
            question = n % (size // 2)  # q<n> and q<n + size/2> ask the same question
            row = {
                "id": f"q{n}",
                "question": f"Question {question}: which letter is number {question % 4}?",
                "choices": {"A": "zero", "B": "one", "C": "two", "D": "three"},
                "answer": "ABCD"[question % 4],
            }
            handle.write(json.dumps(row) + "\n")
    return ["eval", str(PROMPT), str(items), "--format", "generic_jsonl"]


def expected_calls(command: str, out: Path) -> int:
    """The calls a run's artifacts show: one per eval item; in ``optimize``
    one critique per unsaturated section and round, and under LLM dedup one
    consolidation per non-empty gradient."""
    if command.startswith("eval"):
        return json.loads((out / "eval_result.json").read_text(encoding="utf-8"))["total"]
    consolidates = not command.startswith("optimize-lexical-")
    gradients = [gradient for round_ in jsonl(out / "gradients.jsonl") for gradient in round_["gradients"]]
    return sum((not g["saturated"]) + (consolidates and bool(g["directives"])) for g in gradients)


def assert_same_artifacts(recorded: Path, out: Path) -> None:
    assert_same_run(recorded, out)
    if (out / "eval_result.json").exists():  # compare reads both
        assert main(["compare", str(recorded / "eval_result.json"), str(out / "eval_result.json")]) == 0


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """``(command, backend) -> (argv, recording directory, calls)``, each
    recorded once at width 1."""
    made: dict[tuple[str, str], tuple[list[str], Path, int]] = {}

    def recording(command: str, backend: str) -> tuple[list[str], Path, int]:
        if (command, backend) not in made:
            base = tmp_path_factory.mktemp(f"{command}-{backend}")
            argv = command_argv(command, base)
            out = base / "record"
            made[command, backend] = argv, out, run_cli([*argv, "--mock", "--record", "--concurrency", "1"], out, backend)
        return made[command, backend]

    return recording


@pytest.mark.parametrize("command, backend, run", CELLS)
def test_run_writes_the_recorded_artifacts(recordings, tmp_path, command, backend, run):
    argv, recorded, recorded_calls = recordings(command, backend)
    transcript = recorded / "transcript.jsonl"
    if run == "record":
        assert len(assert_redumps(transcript)) == recorded_calls  # one line per call
        assert recorded_calls == expected_calls(command, recorded)
        if command.endswith("-55"):  # cut back, then saturated, as the budget_run_55 pins show
            gradients = [round_["gradients"] for round_ in jsonl(recorded / "gradients.jsonl")]
            assert sum(g["truncated"] for round_ in gradients for g in round_) > 0
            assert any(g["saturated"] for round_ in gradients for g in round_)
        if command.endswith("-20") and backend == "counter":  # every section saturated by round 2, then repeated
            rounds = jsonl(recorded / "gradients.jsonl")
            assert [sum(g["saturated"] for g in round_["gradients"]) for round_ in rounds][2:] == [5] * 4
        return
    out = tmp_path / "run"
    if run == "live":
        width = "8" if command == "eval-2000" else "5"
        calls = run_cli([*argv, "--mock", "--record", "--concurrency", width], out, backend)
        assert calls == recorded_calls  # no item or section is called twice, or skipped, when wider
        assert len(assert_redumps(out / "transcript.jsonl")) == calls
        assert_same_artifacts(recorded, out)
        return
    width, order = run.removeprefix("replay").split("-")
    replayed = reordered(transcript, order, tmp_path / "transcript.jsonl")
    assert run_cli([*argv, "--replay", str(replayed), "--concurrency", width], out, backend) == len(jsonl(replayed))
    assert_same_artifacts(recorded, out)


def test_replay_names_the_recorded_critic(recordings, tmp_path):
    # A replay writes the recorded critic's identity as each gradient's critic_identity.
    argv, recorded, _ = recordings("optimize-lexical-800", "mock")
    run_cli([*argv, "--replay", str(recorded / "transcript.jsonl")], tmp_path, "mock")
    assert_same_run(recorded, tmp_path)


def test_record_and_replay_in_fresh_processes(recordings, tmp_path):
    # Recorded at width 1, replayed at width 5 from the reversed lines and
    # recorded at width 5, each in its own interpreter under a different hash
    # seed; the width-5 recording then replays in this one.
    argv, recorded, calls = recordings("eval-40", "mock")
    reversed_ = reordered(recorded / "transcript.jsonl", "reversed", tmp_path / "reversed.jsonl")
    for seed, out, extra in (
        ("1", tmp_path / "record", ["--mock", "--record", "--concurrency", "1"]),
        ("2", tmp_path / "replay", ["--replay", str(reversed_), "--concurrency", "5"]),
        ("3", tmp_path / "record5", ["--mock", "--record", "--concurrency", "5"]),
    ):
        result = fresh_python("-m", "mpo.cli", *argv, *extra, "--out", str(out), env={"PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        assert_same_artifacts(recorded, out)
    for run in ("record", "record5"):
        assert len(assert_redumps(tmp_path / run / "transcript.jsonl")) == calls
    replay5 = [*argv, "--replay", str(tmp_path / "record5" / "transcript.jsonl")]
    assert run_cli(replay5, tmp_path / "replay5", "mock") == calls
    assert_same_artifacts(recorded, tmp_path / "replay5")
