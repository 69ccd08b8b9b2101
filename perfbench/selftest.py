"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Each test runs workloads for a fraction of a second, so the whole file takes
under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

if not run.use_sources():
    raise SystemExit(2)

import bench  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]


def run_benchmark(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0, stdout.getvalue()
    text = stdout.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def failed_ratio(workload) -> float:
    _, reps, _ = bench.measure(workload, 0.1, None)  # untraced repetitions
    return sum(rep.failed for rep in reps) / sum(rep.ops for rep in reps)


class WorkDir(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = WORK / self.id().rsplit(".", 1)[-1]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.log = workloads.TruncationCounter()
        logging.getLogger().addHandler(self.log)

    def tearDown(self) -> None:
        logging.getLogger().removeHandler(self.log)
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


class DeclaredMetrics(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED[key]]
            self.assertEqual(declared, list(table), key)

    def test_every_declared_metric_is_printed_and_two_seeds_agree_on_calls(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                calls = []
                for seed in (1, 2):
                    text, result = run_benchmark(workload, seed, trace=0)
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0, text)
                    names = [m["name"] for m in DECLARED["end_to_end"]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for name in names:
                        self.assertIn(f"\n{name} = ", text)
                        self.assertGreater(result["metrics"][name]["value"], 0, name)
                    calls.append(result["metrics"]["backend_calls"]["value"])
                self.assertEqual(calls[0], calls[1])
                text, result = run_benchmark(workload, 1, trace=1)
                names = [m["name"] for m in DECLARED["per_layer"]]
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                for name in names:
                    self.assertIn(f"\n{name} = ", text)


class SeededInputs(unittest.TestCase):
    def test_seeds_give_different_inputs_and_a_seed_gives_the_same(self):
        self.assertNotEqual(gen.initial_prompt(1), gen.initial_prompt(2))
        self.assertEqual(gen.initial_prompt(1), gen.initial_prompt(1))
        self.assertNotEqual(gen.mcq_set(1, 20), gen.mcq_set(2, 20))
        self.assertEqual(gen.mcq_set(1, 20), gen.mcq_set(1, 20))
        stream = gen.DirectiveStream(1, new=4, repeats=1)
        self.assertNotEqual(stream("Task Details", "x."), gen.DirectiveStream(2, new=4, repeats=1)("Task Details", "x."))
        self.assertEqual(stream("Task Details", "x."), stream("Task Details", "x."))

    def test_reply_styles_cover_every_extraction_outcome(self):
        import mpo

        mcq = gen.mcq_set(3, 200)
        extracted = [mpo.extract_answer(reply, frozenset("ABCD")) for reply in mcq.replies.values()]
        self.assertEqual(extracted.count(None), mcq.unparseable)
        self.assertTrue(0 < mcq.unparseable < mcq.correct < mcq.total)


class OracleCatchesFaults(WorkDir):
    def test_clean_runs_fail_nothing(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = workloads.WORKLOADS[name](5, self.workdir, self.log)
                try:
                    self.assertEqual(failed_ratio(workload), 0)
                finally:
                    workload.close()

    def test_corrupted_transcript_fails_the_replay(self):
        workload = workloads.RefineReplay(5, self.workdir, self.log)
        setup = workload.setup

        def corrupted_setup():
            setup()
            lines = workload.transcript_path.read_text(encoding="utf-8").splitlines()
            entry = json.loads(lines[40])
            entry["response"] = "- Keep a directive the recording never had."
            lines[40] = json.dumps(entry)
            workload.transcript_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        workload.setup = corrupted_setup
        try:
            self.assertGreater(failed_ratio(workload), 0)
        finally:
            workload.close()

    def test_wrong_standin_answer_fails_the_eval(self):
        workload = workloads.EvalMCQ(5, self.workdir, self.log)
        setup = workload.setup

        def corrupted_setup():
            setup()
            key = next(key for key, reply in workload.mcq.replies.items() if "nswer" in reply)
            workload.mcq.replies[key] = "no letter in this reply"

        workload.setup = corrupted_setup
        self.assertGreater(failed_ratio(workload), 0)

    def test_wrong_critique_fails_the_refine(self):
        workload = workloads.RefineLLM(5, self.workdir, self.log)
        setup = workload.setup

        def corrupted_setup():
            setup()
            stream = workload.standin._critique
            workload.standin._critique = lambda name, content: stream(name, content + "x")

        workload.setup = corrupted_setup
        self.assertGreater(failed_ratio(workload), 0)


class StandsAlone(WorkDir):
    def test_exits_nonzero_without_the_program_sources(self):
        copy = self.workdir / "bare"
        shutil.copytree(HERE, copy / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        done = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
