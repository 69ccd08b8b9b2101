"""End-to-end command-line behavior, driven through ``main`` in-process."""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import signal
import threading
import tracemalloc
from pathlib import Path

import pytest

from mpo import (
    CANONICAL_ORDER,
    BackendError,
    ChatTurn,
    DedupMode,
    EvalResult,
    GenerationParams,
    OptimizerConfig,
    SectionKind,
    Transcript,
    default_template,
    evaluate,
    load_dataset,
    parse_structured_prompt,
    step,
)
from mpo import cli, optimizer
from mpo.cli import CLIError, build_parser, build_run_config, main
from solvers import (
    Recorder, ScriptedBackend, assert_same_run, fresh_python, gold_solver, hooked_backends, jsonl, line, record, refused,
    reordered, scored_solver,
)

# ``mpo.cli.main`` on argv[2:], SIGKILLed on its argv[1]-th backend call.
_KILLED_AT_CALL = """
import os, signal, sys
import mpo.cli
from solvers import hooked_backends


def kill(number, inner, turns, params):
    if number == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return inner.complete(turns, params)


with hooked_backends(kill):
    sys.exit(mpo.cli.main(sys.argv[2:]))
"""

DEDUP_RUNS = [("lexical", []), ("llm", ["--concurrency", "5"])]


@pytest.fixture
def tagged_file(tmp_path, tagged_prompt_text):
    path = tmp_path / "prompt.txt"
    path.write_text(tagged_prompt_text, encoding="utf-8")
    return path


@pytest.fixture
def dataset_file(data_dir):
    return data_dir / "mcq_ten.jsonl"


# The flags each command reads, and so accepts: the six run flags of the
# commands that call a model, and what each command reads besides.
RUN_FLAGS = ("--config", "--out", "--record", "--replay", "--mock", "--live")
COMMAND_FLAGS = {
    "decompose": RUN_FLAGS,
    "optimize": (*RUN_FLAGS, "--iterations", "--concurrency", "--dedup"),
    "eval": (*RUN_FLAGS, "--concurrency", "--format", "--split", "--limit", "--seed"),
    "compare": ("--out",),
    "diff": ("--json",),
}
# A value for each flag; None for a switch.
FLAG_VALUES = {
    "--config": "mpo.ini", "--out": "o", "--record": None, "--replay": "t.jsonl", "--mock": None, "--live": None,
    "--iterations": "1", "--concurrency": "2", "--dedup": "llm", "--format": "arc_jsonl", "--split": "dev",
    "--limit": "5", "--seed": "1", "--json": None,
}


def parser_flags() -> dict[str, set[str]]:
    """Each command's option strings, read from its subparser, help aside."""
    (commands,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


def parse_config(argv: list[str]):
    return build_run_config(build_parser().parse_args(argv))


def optimize_at_budget(data_dir: Path, out: Path, budget: int, *extra: str) -> Path:
    """``mpo optimize tests/data/multi_task_tagged.txt --mock --iterations 3``
    with ``[optimizer] max_section_tokens = <budget>``; returns ``out``."""
    config = out.parent / f"budget{budget}.ini"
    config.write_text(f"[optimizer]\nmax_section_tokens = {budget}\n", encoding="utf-8")
    args = ["optimize", str(data_dir / "multi_task_tagged.txt"), "--mock", "--iterations", "3"]
    assert main(args + ["--config", str(config), *extra, "--out", str(out)]) == 0
    return out


def record_eval(solver, prompt_path: Path, dataset_path: Path, out: Path) -> Path:
    """Run a library-side eval with recording and save the transcript.

    The recorded requests match what ``mpo eval`` later sends, so a replay
    run serves this solver's answers through the CLI.
    """
    state = parse_structured_prompt(prompt_path.read_text(encoding="utf-8"))
    dataset = load_dataset(dataset_path, "generic_jsonl")
    recorder = Recorder(solver)
    evaluate(state, dataset, recorder)
    return recorder.write(out / "recorded.jsonl")


class TestRunConfig:
    def test_defaults(self, tmp_path):
        config = parse_config(["optimize", "prompt.txt"])
        assert config.mode == "mock"
        assert config.iterations == 3
        assert config.dedup is DedupMode.LEXICAL
        assert config.limit is None
        assert config.seed == 0
        assert config.out_dir == Path("mpo-run")

    def test_config_file_applies(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text(
            "[backend]\nmode = live\nbase_url = http://example.test\ntimeout = 9.5\n"
            "[optimizer]\niterations = 5\ndedup = llm\nconcurrency = 2\n"
            "[eval]\nlimit = 4\nseed = 11\ndataset_format = arc_jsonl\n",
            encoding="utf-8",
        )
        config = parse_config(["optimize", "p.txt", "--config", str(ini)])
        assert config.mode == "live"
        assert config.base_url == "http://example.test"
        assert config.timeout == 9.5
        assert config.iterations == 5
        assert config.dedup is DedupMode.LLM
        assert config.concurrency == 2
        assert config.limit == 4
        assert config.seed == 11
        assert config.dataset_format == "arc_jsonl"

    def test_flags_beat_config_file(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text(
            "[backend]\nmode = live\n[optimizer]\niterations = 5\n", encoding="utf-8"
        )
        config = parse_config(
            ["optimize", "p.txt", "--config", str(ini), "--iterations", "2", "--mock"]
        )
        assert config.iterations == 2
        assert config.mode == "mock"

    def test_concurrency_flag(self, tmp_path):
        assert parse_config(["optimize", "p.txt", "--concurrency", "5"]).concurrency == 5
        with pytest.raises(CLIError, match="concurrency"):
            parse_config(["eval", "p.txt", "d.jsonl", "--concurrency", "0"])

    def test_replay_flag_beats_mode_flags(self, tmp_path):
        config = parse_config(["optimize", "p.txt", "--replay", "t.jsonl", "--mock"])
        assert config.mode == "replay"
        assert config.replay_path == Path("t.jsonl")

    def test_template_paths_collected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[templates]\ngradient = custom.txt\n", encoding="utf-8")
        config = parse_config(["optimize", "p.txt", "--config", str(ini)])
        assert config.templates == {"gradient": Path("custom.txt")}

    def test_optimizer_defaults_are_the_optimizers(self):
        assert cli.RunConfig().optimizer_config() == OptimizerConfig()

    def test_template_path_is_relative_to_the_working_directory(self, tagged_file, tmp_path, monkeypatch):
        # The config file's own directory holds a same-named template that would exit 2 if it were read.
        cwd, elsewhere = tmp_path / "cwd", tmp_path / "elsewhere"
        cwd.mkdir()
        elsewhere.mkdir()
        (elsewhere / "mpo.ini").write_text("[templates]\ngradient = my_gradient.txt\n", encoding="utf-8")
        (elsewhere / "my_gradient.txt").write_text("no placeholders\n", encoding="utf-8")
        marker = "Read from the working directory."
        (cwd / "my_gradient.txt").write_text(f"{marker}\n{default_template('gradient').text}", encoding="utf-8")
        monkeypatch.chdir(cwd)
        argv = ["optimize", str(tagged_file), "--config", str(elsewhere / "mpo.ini"), "--iterations", "1"]
        assert main(argv + ["--record", "--out", "o"]) == 0
        assert marker in (cwd / "o" / "transcript.jsonl").read_text(encoding="utf-8")

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[misc]\nx = 1\n", encoding="utf-8")
        with pytest.raises(CLIError, match=r"unknown config section"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[backend]\nmodel = x\n", encoding="utf-8")
        with pytest.raises(CLIError, match=r"unknown config key"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    def test_rewrite_template_key_exits_two(self, tagged_file, tmp_path, capsys):
        # No command sends the rewrite template, so it has no config key.
        ini = tmp_path / "mpo.ini"
        ini.write_text("[templates]\nrewrite = my_rewrite.txt\n", encoding="utf-8")
        assert main(["optimize", str(tagged_file), "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert "error: unknown config key 'rewrite' in [templates]\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nbogus = 1\n", "[DEFAULT]\nseed = 1\n[optimizer]\niterations = 2\n"],
        ids=["alone", "beside_a_section"],
    )
    def test_default_section_keys_rejected(self, tmp_path, text):
        ini = tmp_path / "mpo.ini"
        ini.write_text(text, encoding="utf-8")
        with pytest.raises(CLIError, match=r"^\[DEFAULT\] takes no keys, got '(bogus|seed)'$"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    @pytest.mark.parametrize(
        "command, flag, value, what",
        [
            ("optimize", "--iterations", "-1", "an integer >= 0"),
            ("optimize", "--concurrency", "0", "an integer >= 1"),
            ("eval", "--limit", "0", "an integer >= 1"),
        ],
    )
    def test_out_of_range_flag_exits_two(self, tagged_file, dataset_file, tmp_path, capsys, command, flag, value, what):
        # The settings table rejects the value, naming its key, before the optimizer or the sampler sees it.
        inputs = [str(tagged_file), str(dataset_file)] if command == "eval" else [str(tagged_file)]
        assert main([command, *inputs, flag, value, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {flag[2:]} must be {what}, got {value}\n"
        assert not (tmp_path / "o").exists()

    def test_config_mode_replay_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[backend]\nmode = replay\n", encoding="utf-8")
        with pytest.raises(CLIError, match="mock' or 'live"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    def test_non_integer_iterations_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[optimizer]\niterations = many\n", encoding="utf-8")
        with pytest.raises(CLIError, match="integer"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    def test_bad_dedup_value_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[optimizer]\ndedup = fuzzy\n", encoding="utf-8")
        with pytest.raises(CLIError, match="dedup"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    @pytest.mark.parametrize(
        "section, key, value, flag",
        [
            ("optimizer", "iterations", "many", ["--iterations", "2"]),
            ("optimizer", "dedup", "fuzzy", ["--dedup", "llm"]),
            ("optimizer", "concurrency", "0", ["--concurrency", "2"]),
            ("eval", "dataset_format", "xml", ["--format", "arc_jsonl"]),
            ("eval", "limit", "few", ["--limit", "3"]),
            ("eval", "seed", "s", ["--seed", "1"]),
            ("optimizer", "iterations", "-1", ["--iterations", "2"]),
            ("eval", "limit", "0", ["--limit", "3"]),
            ("optimizer", "max_section_tokens", "0", []),
            ("backend", "timeout", "nan", []),
            ("templates", "gradient", "", []),  # Path("") would be the working directory
        ],
    )
    def test_bad_file_value_rejected_under_flag(self, tmp_path, section, key, value, flag):
        ini = tmp_path / "mpo.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        # Each flag goes to a command that reads it: [optimizer] keys to optimize, the rest to eval.
        command = ["optimize", "p.txt"] if section == "optimizer" else ["eval", "p.txt", "d.jsonl"]
        argv = [*command, "--config", str(ini), *flag]
        with pytest.raises(CLIError, match=f"^{key} must be .*, got '{value}'$"):
            parse_config(argv)

    def test_percent_in_value_is_literal(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[backend]\nbase_url = http://h/a%20b\ncritic_model = 100%\n", encoding="utf-8")
        config = parse_config(["optimize", "p.txt", "--config", str(ini)])
        assert config.base_url == "http://h/a%20b"
        assert config.critic_model == "100%"

    def test_non_utf8_config_rejected(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_bytes(b"[eval]\nsplit = caf\xe9\n")
        with pytest.raises(CLIError, match="cannot read config file"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])

    def test_readme_config_example(self, tmp_path, tagged_file, monkeypatch):
        """The README's ``ini`` block, verbatim, parses and names every setting, and
        ``optimize --mock`` runs with it next to copies of the built-in templates it names."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
        ini = tmp_path / "mpo.ini"
        ini.write_text(block, encoding="utf-8")
        config = parse_config(["optimize", "p.txt", "--config", str(ini)])
        assert (config.mode, config.base_url, config.timeout) == ("live", "https://llm.example.com", 60.0)
        assert (config.concurrency, config.dedup, config.limit) == (1, DedupMode.LEXICAL, 50)
        assert config.templates["gradient"] == Path("my_gradient.txt")
        pairs, section = set(), None
        for line in block.splitlines():
            if header := re.match(r"\[(\w+)\]", line):
                section = header.group(1)
            elif key := re.match(r"(\w+) =", line):
                pairs.add((section, key.group(1)))
        assert pairs == {(section, key) for section, key, *_ in cli._SETTINGS}
        monkeypatch.chdir(tmp_path)
        for name, path in config.templates.items():
            path.write_text(default_template(name).text, encoding="utf-8")
        assert main(["optimize", str(tagged_file), "--config", str(ini), "--mock", "--iterations", "1"]) == 0
        assert (tmp_path / "mpo-run" / "final_prompt.txt").stat().st_size > 0

    def test_table_flags_exist(self):
        # Each flag of the table is on exactly the commands that read its setting.
        flags = parser_flags()
        for flag in (f"--{row[-1]}" for row in cli._SETTINGS if row[-1]):
            readers = {command for command, read in COMMAND_FLAGS.items() if flag in read}
            assert readers and {command for command, options in flags.items() if flag in options} == readers

    def test_readme_flag_table(self):
        """The README's per-command flag table names exactly each command's flags."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, flags=re.M)
        assert {command: set(re.findall(r"`(--[\w-]+)", cell)) for command, cell in rows} == parser_flags()

    def test_non_positive_timeout_exits_two(self, tmp_path, tagged_file, capsys):
        ini = tmp_path / "mpo.ini"
        ini.write_text("[backend]\nbase_url = http://127.0.0.1:9\ntimeout = 0\n", encoding="utf-8")
        argv = ["optimize", str(tagged_file), "--live", "--config", str(ini), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"timeout must be a number > 0 and <= {threading.TIMEOUT_MAX:.0f}, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["inf", "1e400", "1e10"])
    def test_timeout_past_the_socket_limit_exits_two(self, timeout, tmp_path, tagged_file, capsys):
        # A socket rejects it at every call, which would abort the run at its first call.
        ini = tmp_path / "mpo.ini"
        ini.write_text(f"[backend]\nbase_url = http://127.0.0.1:9\ntimeout = {timeout}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["optimize", str(tagged_file), "--live", "--config", str(ini), "--out", str(out)]) == 2
        assert f"timeout must be a number > 0 and <= {threading.TIMEOUT_MAX:.0f}, got '{timeout}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["\u043a\u043b\u044e\u0447", "secret\n"], ids=["not_latin1", "line_break"])
    def test_api_key_no_header_can_carry_exits_two(self, key, tmp_path, tagged_file, capsys, monkeypatch):
        # HTTP sends header values as latin-1 on one line, so every call would fail on this key.
        monkeypatch.setenv("MPO_API_KEY", key)
        monkeypatch.setenv("MPO_BASE_URL", "http://127.0.0.1:9")
        out = tmp_path / "o"
        assert main(["optimize", str(tagged_file), "--live", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the API key (MPO_API_KEY) must be latin-1 text without line breaks" in err and key.strip() not in err
        assert not out.exists()

    def test_record_during_replay_disabled(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="mpo.cli"):
            config = parse_config(
                ["optimize", "p.txt", "--replay", "t.jsonl", "--record"]
            )
        assert config.record is False
        assert any("no effect" in message for message in caplog.messages)


class TestOneBackendPerCommand:
    # Each command reads every input before it builds its backend or opens
    # OUT: an input error exits 2 and leaves a recorded run in OUT as it was.
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "{missing}"],
            ["decompose", "{empty}"],
            ["decompose", "{prompt}", "--config", "{templates}"],
            ["optimize", "{missing}"],
            ["optimize", "{malformed}"],
            ["optimize", "{prompt}", "--config", "{templates}"],
            ["eval", "{malformed}", "{dataset}"],
            ["eval", "{prompt}", "{missing}"],
            ["eval", "{prompt}", "{empty}"],
            ["eval", "{prompt}", "{bad_items}"],
            ["eval", "{prompt}", "{dataset}", "--config", "{templates}"],
        ],
        ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""),
    )
    def test_input_error_keeps_the_recorded_run(self, argv, tagged_file, dataset_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["optimize", str(tagged_file), "--mock", "--iterations", "1", "--record", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert before["transcript.jsonl"]
        paths = {"prompt": tagged_file, "dataset": dataset_file, "missing": tmp_path / "missing.txt"}
        bad_items = '{"id": "q1", "question": 5, "choices": {"A": "x", "B": "y"}, "answer": "A"}\n'
        for name, text in [
            ("malformed", "no sections here\n"), ("empty", ""), ("bad_items", bad_items), ("templates", "[templates]\n")
        ]:
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        with paths["templates"].open("a", encoding="utf-8") as handle:
            handle.writelines(f"{name} = {paths['missing']}\n" for name in cli.TEMPLATE_NAMES)
        argv = [arg.format(**paths) for arg in argv] + ["--mock", "--record", "--out"]
        assert main(argv + [str(out)]) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert main(argv + [str(tmp_path / "fresh")]) == 2
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "{prompt}", "--config", "{no_equals}", "--out", "{fresh}"], "invalid config file"),
            (["optimize", "{prompt}", "--config", "{repeated_key}", "--out", "{fresh}"], "invalid config file"),
            (["optimize", "{prompt}", "--replay", "{missing}", "--out", "{fresh}"], "cannot read transcript"),
            (["optimize", "{prompt}", "--live", "--out", "{fresh}"], "no base URL"),
            (["optimize", "{prompt}", "--live", "--config", "{schemeless}", "--out", "{fresh}"],
             "base URL 'localhost:9' cannot be used"),
            (["optimize", "{prompt}", "--out", "{file}/run"], "cannot create output directory"),
            (["compare", "{result}", "{result2}", "--out", "{file}/run"], "cannot create output directory"),
        ],
        ids=["key_without_equals", "repeated_key", "missing_transcript", "live_without_url", "live_schemeless_url",
             "optimize_out_below_file", "compare_out_below_file"],
    )
    def test_setup_error_exits_two(self, argv, message, tagged_file, tagged_prompt, dataset_file, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.delenv("MPO_BASE_URL", raising=False)
        paths = {"prompt": tagged_file, "missing": tmp_path / "missing.jsonl", "fresh": tmp_path / "fresh"}
        for name, text in [
            ("no_equals", "[optimizer]\niterations\n"), ("repeated_key", "[optimizer]\niterations = 1\niterations = 2\n"),
            ("file", "a regular file\n"), ("schemeless", "[backend]\nbase_url = localhost:9\n"),
        ]:
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        dataset = load_dataset(dataset_file, "generic_jsonl")
        for name in ("result", "result2"):
            paths[name] = tmp_path / f"{name}.json"
            result = evaluate(tagged_prompt, dataset, gold_solver(dataset))
            paths[name].write_text(json.dumps(result.to_dict()), encoding="utf-8")
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not paths["fresh"].exists()

    @pytest.mark.parametrize(
        "argv, name, text, missing",
        [
            (["decompose", "{raw}"], "decompose", "Split this prompt into sections.\n", "{PROMPT}"),
            (["optimize", "{prompt}"], "gradient", "Critique {SECTION_KIND}.\n", "{CONTEXT}, {SECTION_CONTENT}"),
            (["eval", "{prompt}", "{dataset}"], "question", "{QUESTION}\nAnswer:\n", "{CHOICES}"),
        ],
        ids=["decompose", "optimize", "eval"],
    )
    def test_template_without_a_builtin_placeholder_exits_two(
        self, argv, name, text, missing, tagged_file, dataset_file, data_dir, tmp_path, capsys
    ):
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.json").write_text("kept\n", encoding="utf-8")
        template, config = tmp_path / f"{name}.txt", tmp_path / "mpo.ini"
        template.write_text(text, encoding="utf-8")
        config.write_text(f"[templates]\n{name} = {template}\n", encoding="utf-8")
        paths = {"raw": data_dir / "multi_task_raw.txt", "prompt": tagged_file, "dataset": dataset_file}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ["--mock", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: template {template} lacks the placeholders {missing}\n" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["metrics.json"]
        assert (out / "metrics.json").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["decompose", "{raw}"], "decomposed_prompt.txt"),
            (["optimize", "{prompt}", "--iterations", "1"], "metrics.json"),
            (["eval", "{prompt}", "{dataset}"], "eval_result.json"),
            # Aborted runs: a third round the two-round recording lacks, and a replay of no eval call.
            (["optimize", "{prompt}", "--dedup", "lexical_then_llm", "--replay", "{seed}"], "history.jsonl"),
            (["eval", "{prompt}", "{dataset}", "--replay", "{seed}"], "eval_result.partial.json"),
        ],
        ids=["decompose", "optimize", "eval", "optimize-aborted", "eval-aborted"],
    )
    def test_unwritable_artifact_exits_two(self, argv, artifact, tagged_file, dataset_file, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        (out / artifact).mkdir(parents=True)
        paths = {"raw": data_dir / "multi_task_raw.txt", "prompt": tagged_file, "dataset": dataset_file}
        paths["seed"] = data_dir / "seed_run" / "transcript.jsonl"
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ["--mock", "--out", str(out)]) == 2
        assert f"error: cannot write {out / artifact}: " in capsys.readouterr().err

    def test_live_builds_one_http_backend_for_its_role(
        self, provider, tagged_file, dataset_file, data_dir, tmp_path, capsys, monkeypatch
    ):
        base_url, server = provider
        monkeypatch.setenv("MPO_BASE_URL", base_url)
        monkeypatch.delenv("MPO_API_KEY", raising=False)
        runs = [
            (["decompose", str(data_dir / "multi_task_raw.txt")], "extractor"),
            (["optimize", str(tagged_file), "--iterations", "1"], "critic"),
            (["eval", str(tagged_file), str(dataset_file)], "solver"),
        ]
        for argv, role in runs:
            server.requests.clear()
            with hooked_backends() as (builds, calls):
                assert main(argv + ["--live", "--record", "--out", str(tmp_path / role)]) == 0
            assert builds == [("live", role)]
            assert [request["body"]["model"] for request in server.requests] == [role] * len(calls)
            assert Transcript.load(tmp_path / role / "transcript.jsonl")


class TestDecompose:
    def test_raw_prompt_structures(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["decompose", str(data_dir / "multi_task_raw.txt"), "--out", str(out)]
        )
        assert code == 0
        state = parse_structured_prompt(
            (out / "decomposed_prompt.txt").read_text(encoding="utf-8")
        )
        assert not state.section(SectionKind.TASK_DETAILS).is_empty
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "System Role: original (empty)"
        assert lines[1] == "Relevant Context: original"
        assert lines[-1].startswith("wrote ")

    def test_tagged_input_passes_through(self, tagged_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["decompose", str(tagged_file), "--out", str(out)]) == 0
        written = (out / "decomposed_prompt.txt").read_text(encoding="utf-8")
        assert written == tagged_file.read_text(encoding="utf-8")
        assert "System Role: original" in capsys.readouterr().out

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("  \n", encoding="utf-8")
        assert main(["decompose", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "decomposition failed" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unusable_extractor_reply_exits_two(self, tmp_path, capsys):
        # A hand-built transcript serves a tag-free reply for exactly the
        # request the decompose command will send.
        text = "Plain prompt with no headings to route."
        path = tmp_path / "plain.txt"
        path.write_text(text, encoding="utf-8")
        filled = default_template("decompose").fill(PROMPT=text)
        entry = record((ChatTurn("user", filled),), GenerationParams(max_output_tokens=1024), response="still no structure here")
        transcript_path = tmp_path / "t.jsonl"
        transcript_path.write_text(line(entry), encoding="utf-8")
        code = main(
            [
                "decompose",
                str(path),
                "--replay",
                str(transcript_path),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "decomposition failed" in capsys.readouterr().err


    @pytest.mark.parametrize("fault", ["backend_error", "replay_miss"])
    def test_extractor_fault_exits_three(self, fault, data_dir, tmp_path, capsys):
        # A backend that fails past its retries aborts the run; only an unusable reply is an input error.
        def down(number, inner, turns, params):
            raise BackendError("503 down")

        out = tmp_path / "o"
        argv = ["decompose", str(data_dir / "multi_task_raw.txt"), "--out", str(out)]
        if fault == "replay_miss":
            other = tmp_path / "other.txt"
            other.write_text("Another prompt entirely.\n", encoding="utf-8")
            assert main(["decompose", str(other), "--record", "--out", str(tmp_path / "recorded")]) == 0
            argv += ["--replay", str(tmp_path / "recorded" / "transcript.jsonl")]
        capsys.readouterr()
        with hooked_backends(down if fault == "backend_error" else None):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("aborted: ") and ("503 down" in err if fault == "backend_error" else "no " in err)
        assert not (out / "decomposed_prompt.txt").exists()


class TestOptimize:
    def test_mock_run_writes_artifacts(self, tagged_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["optimize", str(tagged_file), "--out", str(out), "--iterations", "2"]
        )
        assert code == 0

        history = jsonl(out / "history.jsonl")
        assert len(history) == 3
        first = history[0]
        assert first["iteration"] == 0
        assert first["parent_digest"] is None
        assert [s["kind"] for s in first["sections"]] == [
            "system_role",
            "relevant_context",
            "task_details",
            "constraints",
            "output_format",
        ]

        gradients = jsonl(out / "gradients.jsonl")
        assert len(gradients) == 2
        round_one = gradients[0]
        assert round_one["iteration"] == 0
        assert len(round_one["gradients"]) == 5
        assert round_one["failures"] == []

        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["iterations"] == 2
        assert len(metrics["digests"]) == 3
        assert metrics["failure_count"] == 0
        assert metrics["growth"]["total_tokens"][0] < metrics["growth"]["total_tokens"][1]

        final = parse_structured_prompt((out / "final_prompt.txt").read_text(encoding="utf-8"))
        assert final.digest == history[-1]["digest"]

        stdout = capsys.readouterr().out
        assert "iterations: 2" in stdout
        assert "final digest: " in stdout

    def test_unstructured_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "loose.txt"
        path.write_text("no tags at all\n", encoding="utf-8")
        assert main(["optimize", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "not a structured prompt" in capsys.readouterr().err

    def test_replay_shortfall_aborts_with_partial_artifacts(
        self, tagged_file, tmp_path, capsys
    ):
        recorded = tmp_path / "recorded"
        args = ["optimize", str(tagged_file), "--iterations", "1"]
        assert main(args + ["--out", str(recorded), "--record"]) == 0
        transcript = recorded / "transcript.jsonl"

        out = tmp_path / "over"
        code = main(
            [
                "optimize",
                str(tagged_file),
                "--iterations",
                "2",
                "--out",
                str(out),
                "--replay",
                str(transcript),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "aborted" in err
        assert "partial artifacts" in err
        # One full round completed before the transcript ran dry.
        assert len(jsonl(out / "history.jsonl")) == 2

    def test_seed_transcript_still_replays(self, data_dir, tmp_path, capsys):
        # Recorded with --mock --record --dedup lexical_then_llm --iterations 2
        # while the gradient template still had a {FAILURE_EXAMPLES} line;
        # every request must still match. The history, gradients and metrics
        # pinned next to it were written by this replay before lookup stopped
        # going through the stored request digest.
        seed = data_dir / "seed_run"
        out = tmp_path / "replayed"
        args = ["optimize", str(data_dir / "multi_task_tagged.txt"), "--dedup", "lexical_then_llm"]
        args += ["--iterations", "2", "--replay", str(seed / "transcript.jsonl"), "--out", str(out)]
        assert main(args) == 0
        assert_same_run(seed, out)

    @pytest.mark.parametrize(
        "malformed",
        [
            line(record(request=[{"role": "user"}])),
            line(record(request=[{"role": "user", "content": None}])),
            line(record(request=["user"])),
            line(record(request=[{"role": 1, "content": "x"}])),
            line(record(request=[{"role": "tool", "content": "x"}])),
            line(record(request={"role": "user", "content": "x"})),
            line(record(response=None)),
            line(record(response=7)),
            line(record(params=None)),
            line(record(params=[0.0, 512])),
            line(record(timestamp=...)),
            '["not", "an", "object"]\n',
            "{not json\n",
        ],
        ids=[
            "no-content", "null-content", "not-an-object", "number-role", "unknown-role", "request-not-a-list",
            "null-response", "number-response", "null-params", "list-params", "no-timestamp", "record-not-an-object",
            "not-json",
        ],
    )
    def test_malformed_transcript_turn_exits_two(self, tagged_file, tmp_path, capsys, malformed):
        # The transcript is checked when it loads, before the run starts and
        # before any artifact is written. The first line is a good record.
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(f"{line(record())}\n{malformed}", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["optimize", str(tagged_file), "--replay", str(transcript), "--out", str(out)]) == 2
        assert f"malformed transcript {transcript}: line 3: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_transcript_exits_two(self, tagged_file, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(line(record()).encode() + b'{"request_digest": "caf\xe9"}\n')
        assert main(["optimize", str(tagged_file), "--replay", str(transcript), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"malformed transcript {transcript}: 'utf-8' codec can't decode byte 0xe9" in err

    def test_non_utf8_template_exits_two(self, tagged_file, tmp_path, capsys):
        template = tmp_path / "gradient.txt"
        template.write_bytes(b"caf\xe9 {SECTION_CONTENT}\n")
        config = tmp_path / "mpo.ini"
        config.write_text(f"[templates]\ngradient = {template}\n", encoding="utf-8")
        assert main(["optimize", str(tagged_file), "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {template}: " in err and "utf-8" in err

    def test_non_utf8_prompt_exits_two(self, tmp_path, capsys):
        prompt = tmp_path / "prompt.txt"
        prompt.write_bytes(b"<System Role>\ncaf\xe9\n</System Role>\n")
        assert main(["optimize", str(prompt), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {prompt}: " in err and "utf-8" in err

    def test_unwritable_transcript_exits_two_before_any_call(self, tagged_file, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "transcript.jsonl").mkdir(parents=True)
        with hooked_backends() as (_, calls):
            assert main(["optimize", str(tagged_file), "--mock", "--record", "--out", str(out)]) == 2
        assert f"error: cannot write transcript {out / 'transcript.jsonl'}: " in capsys.readouterr().err
        assert calls == [] and [path.name for path in out.iterdir()] == ["transcript.jsonl"]

    @pytest.mark.parametrize("width", [1, 5])
    def test_killed_run_keeps_its_finished_calls(self, tagged_file, tmp_path, width):
        # Round 1 makes 10 calls, 5 critiques and 5 consolidations, and every
        # section's update is read before round 2 starts, so at any width the
        # SIGKILL on call 11 comes after all 10 lines are written. Nothing of
        # the run's own cleanup runs, yet all 10 lines are there and whole.
        out = tmp_path / "run"
        args = ["optimize", str(tagged_file), "--mock", "--record", "--dedup", "llm", "--iterations", "3"]
        args += ["--concurrency", str(width), "--out", str(out)]
        result = fresh_python("-c", _KILLED_AT_CALL, "11", *args)
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert len(Transcript.load(out / "transcript.jsonl")) == 10
        assert (out / "transcript.jsonl").read_text(encoding="utf-8").endswith("}\n")

    def test_interrupted_run_keeps_transcript(self, tagged_file, tmp_path):
        def interrupt(number, inner, turns, params):
            if number == 3:
                raise KeyboardInterrupt
            return inner.complete(turns, params)

        out = tmp_path / "run"
        args = ["optimize", str(tagged_file), "--record", "--concurrency", "1", "--out", str(out)]
        with hooked_backends(interrupt), pytest.raises(KeyboardInterrupt):
            main(args)
        assert len(Transcript.load(out / "transcript.jsonl")) == 2

    @pytest.mark.parametrize("dedup, extra", DEDUP_RUNS)
    def test_budget_run_matches_pinned_artifacts(
        self, data_dir, tmp_path, capsys, caplog, dedup, extra
    ):
        # Re-recorded once saturated sections stopped being critiqued: every
        # section the budget of 40 could cut (Task Details 52, Constraints
        # 103, Output Format 51 tokens) comes in over it, so nothing is cut.
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            out = optimize_at_budget(data_dir, tmp_path / dedup, 40, "--dedup", dedup, *extra)
        assert_same_run(data_dir / "budget_run" / dedup, out)
        assert [m for m in caplog.messages if "truncated from" in m] == []

    @pytest.mark.parametrize("dedup, extra", DEDUP_RUNS)
    def test_budget_55_run_matches_pinned_artifacts(
        self, data_dir, tmp_path, capsys, caplog, dedup, extra
    ):
        # At 55, System Role and Context grow under the budget, Task Details
        # and Output Format are cut back in round 0 and saturated after it,
        # and Constraints is saturated from the start. Re-recorded once a cut
        # back section kept its incoming object: those two stay `original`.
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            out = optimize_at_budget(data_dir, tmp_path / dedup, 55, "--dedup", dedup, *extra)
        assert_same_run(data_dir / "budget_run_55" / dedup, out)
        assert sorted(m for m in caplog.messages if "truncated from" in m) == [
            "section Output Format exceeded 55 tokens, truncated from 66 to 51",
            "section Task Details exceeded 55 tokens, truncated from 61 to 52",
        ]
        rounds = jsonl(out / "gradients.jsonl")
        saturated = [[g["target"] for g in r["gradients"] if g["saturated"]] for r in rounds]
        assert saturated == [
            ["constraints"],
            ["task_details", "constraints", "output_format"],
            ["task_details", "constraints", "output_format"],
        ]

    @pytest.mark.parametrize("dedup, extra", DEDUP_RUNS)
    def test_fixed_point_run_matches_pinned_artifacts(self, data_dir, tmp_path, capsys, monkeypatch, dedup, extra):
        # Recorded with the mock critic under the solvers.counter hook at a
        # budget of 20 for 6 rounds, and replayed to write the pins while every
        # round still called step. Round 2 (lexical) or 1 (llm) is the first to
        # saturate every section; each later round repeats it without a step.
        pinned = data_dir / "fixed_point_run" / dedup
        config = tmp_path / "budget20.ini"
        config.write_text("[optimizer]\nmax_section_tokens = 20\n", encoding="utf-8")
        steps = []
        monkeypatch.setattr(optimizer, "step", lambda *args, **kwargs: steps.append(None) or step(*args, **kwargs))
        args = ["optimize", str(data_dir / "multi_task_tagged.txt"), "--dedup", dedup, "--iterations", "6"]
        args += ["--config", str(config), "--replay", str(pinned / "transcript.jsonl"), *extra, "--out", str(tmp_path / "o")]
        assert main(args) == 0
        assert_same_run(pinned, tmp_path / "o")
        rounds = [round_["gradients"] for round_ in jsonl(pinned / "gradients.jsonl")]
        saturated = [sum(g["saturated"] for g in gradients) for gradients in rounds]
        assert saturated == {"lexical": [4, 4, 5, 5, 5, 5], "llm": [4, 5, 5, 5, 5, 5]}[dedup]
        assert len(steps) == saturated.index(5) + 1

    def test_over_budget_sections_keep_their_own_lines(self, data_dir, tmp_path, capsys, caplog):
        # The budget used to cut 3 of Task Details' and 7 of Constraints'
        # own lines in round 0 of this run.
        initial = parse_structured_prompt((data_dir / "multi_task_tagged.txt").read_text(encoding="utf-8"))
        with caplog.at_level("WARNING", logger="mpo.optimizer"):
            out = optimize_at_budget(data_dir, tmp_path / "run", 40)
        final = parse_structured_prompt((out / "final_prompt.txt").read_text(encoding="utf-8"))
        for kind, tokens in (
            (SectionKind.TASK_DETAILS, 52),
            (SectionKind.CONSTRAINTS, 103),
            (SectionKind.OUTPUT_FORMAT, 51),
        ):
            assert initial.section(kind).token_count == tokens
            kept = final.section(kind).content.splitlines()
            assert all(line in kept for line in initial.section(kind).content.splitlines())
        assert not [m for m in caplog.messages if "truncated from" in m]
        assert "saturated section updates (not critiqued): 9" in capsys.readouterr().out

    def test_metrics_split_cleanup_from_truncation(self, data_dir, tmp_path, capsys):
        out = optimize_at_budget(data_dir, tmp_path / "run", 55)
        growth = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["growth"]
        assert growth["lines_removed"] == [0, 2, 2]
        assert growth["lines_truncated"] == [2, 0, 0]
        assert growth["sections_saturated"] == [1, 3, 3]
        rounds = jsonl(out / "gradients.jsonl")
        for key, per_round in (
            ("removed", "lines_removed"),
            ("truncated", "lines_truncated"),
            ("saturated", "sections_saturated"),
        ):
            assert [sum(g[key] for g in r["gradients"]) for r in rounds] == growth[per_round]

    def test_saturated_run_identical_at_any_width_and_order(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        shuffled = tuple(random.Random(7).sample(CANONICAL_ORDER, 5))
        runs = [
            ("width1", ["--concurrency", "1"], None),
            ("width5", ["--concurrency", "5"], None),
            ("reversed", [], tuple(reversed(CANONICAL_ORDER))),
            ("shuffled", ["--concurrency", "5"], shuffled),
        ]
        outs = []
        for name, extra, order in runs:
            if order:
                ordered = functools.partial(step, process_order=order)
                monkeypatch.setattr(optimizer, "step", ordered)
            outs.append(optimize_at_budget(data_dir, tmp_path / name, 55, *extra))
            monkeypatch.undo()
        assert b'"saturated": true' in (outs[0] / "gradients.jsonl").read_bytes()
        assert_same_run(*outs)


class TestEval:
    def test_recorded_eval_holds_no_calls_in_memory(self, tagged_prompt_text, tmp_path):
        # Each solve sends the whole prompt, here about 20 KB, so the transcript
        # is far larger than anything else the run holds.
        rules = "".join(f"- Rule {n}: state the answer to question {n} exactly.\n" for n in range(400))
        prompt = tmp_path / "prompt.txt"
        prompt.write_text(tagged_prompt_text.replace("<Constraints>\n", "<Constraints>\n" + rules), encoding="utf-8")
        dataset = tmp_path / "items.jsonl"
        dataset.write_text(
            "".join(
                json.dumps({"id": f"q{n}", "question": f"Which is {n}?", "choices": {"A": "x", "B": "y"}, "answer": "AB"[n % 2]})
                + "\n"
                for n in range(200)
            ),
            encoding="utf-8",
        )
        out = tmp_path / "run"
        args = ["eval", str(prompt), str(dataset), "--mock", "--record", "--concurrency", "4", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (out / "transcript.jsonl").stat().st_size
        assert len(Transcript.load(out / "transcript.jsonl")) == 200 and size > 4_000_000
        assert peak < size / 4, (peak, size)

    def test_diverging_replay_keeps_the_partial_result(self, tagged_file, dataset_file, tmp_path, capsys):
        # Seed 2 samples q01-q03, q08 and q09, so replaying the whole file misses first at q04.
        recorded = tmp_path / "recorded"
        args = ["eval", str(tagged_file), str(dataset_file)]
        assert main(args + ["--limit", "5", "--seed", "2", "--record", "--out", str(recorded)]) == 0
        sampled = {record["id"] for record in json.loads((recorded / "eval_result.json").read_text(encoding="utf-8"))["records"]}
        ids = [item.id for item in load_dataset(dataset_file, "generic_jsonl").items]
        missed = next(index for index, item_id in enumerate(ids) if item_id not in sampled)
        for width in ("1", "5"):
            out = tmp_path / f"replay{width}"
            replay = ["--replay", str(recorded / "transcript.jsonl"), "--concurrency", width, "--out", str(out)]
            assert main(args + replay) == 3
            assert f"aborted: run aborted at item {ids[missed]}: " in capsys.readouterr().err
            assert not (out / "eval_result.json").exists()
        assert_same_run(tmp_path / "replay1", tmp_path / "replay5")
        partial = json.loads((tmp_path / "replay1" / "eval_result.partial.json").read_text(encoding="utf-8"))
        assert [record["id"] for record in partial["records"]] == ids[:missed] == ["q01", "q02", "q03"]

    def test_mock_eval_prints_accuracy(self, tagged_file, dataset_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eval", str(tagged_file), str(dataset_file), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        match = re.search(r"^accuracy: (\d+\.\d{2})%$", stdout, re.MULTILINE)
        assert match
        result = EvalResult.from_dict(
            json.loads((out / "eval_result.json").read_text(encoding="utf-8"))
        )
        assert f"{result.accuracy * 100:.2f}" == match.group(1)
        assert result.total == 10

    def test_scripted_seventy_percent_through_replay(
        self, tagged_file, dataset_file, tmp_path, capsys
    ):
        dataset = load_dataset(dataset_file, "generic_jsonl")
        correct = {item.id for item in dataset.items[:7]}
        transcript = record_eval(
            scored_solver(dataset, correct), tagged_file, dataset_file, tmp_path
        )
        code = main(
            [
                "eval",
                str(tagged_file),
                str(dataset_file),
                "--replay",
                str(transcript),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy: 70.00%" in stdout
        assert "unparseable" not in stdout

    def test_all_unparseable_scores_zero(self, tagged_file, dataset_file, tmp_path, capsys):
        transcript = record_eval(
            ScriptedBackend("No idea."), tagged_file, dataset_file, tmp_path
        )
        code = main(
            [
                "eval",
                str(tagged_file),
                str(dataset_file),
                "--replay",
                str(transcript),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy: 0.00%" in stdout
        assert "unparseable: 10/10" in stdout

    def test_limit_samples_deterministically(
        self, tagged_file, dataset_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(
            [
                "eval",
                str(tagged_file),
                str(dataset_file),
                "--out",
                str(out),
                "--limit",
                "4",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        result = json.loads((out / "eval_result.json").read_text(encoding="utf-8"))
        assert result["total"] == 4
        dataset = load_dataset(dataset_file, "generic_jsonl")
        picked = sorted(random.Random(0).sample(range(10), 4))
        assert [r["id"] for r in result["records"]] == [
            dataset.items[i].id for i in picked
        ]

    def test_wrong_format_exits_two(self, tagged_file, data_dir, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(tagged_file),
                str(data_dir / "mcq_ten.jsonl"),
                "--format",
                "arc_jsonl",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "cannot load dataset" in capsys.readouterr().err

    def test_empty_dataset_exits_two(self, tagged_file, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(
            ["eval", str(tagged_file), str(empty), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "no items" in capsys.readouterr().err

    @staticmethod
    def _down(number, inner, turns, params):
        raise BackendError("service down")

    def test_majority_solver_failures_abort(self, tagged_file, dataset_file, tmp_path, capsys):
        out = tmp_path / "out"
        with hooked_backends(self._down):
            code = main(["eval", str(tagged_file), str(dataset_file), "--out", str(out)])
        assert code == 3
        assert "aborted" in capsys.readouterr().err
        partial = json.loads(
            (out / "eval_result.partial.json").read_text(encoding="utf-8")
        )
        assert partial["total"] == 6
        assert all("solver failed" in r["note"] for r in partial["records"])

    def test_abort_artifact_same_at_every_width(self, tagged_file, dataset_file, tmp_path, capsys):
        for width in ("1", "4"):
            args = ["eval", str(tagged_file), str(dataset_file), "--out", str(tmp_path / f"width{width}")]
            with hooked_backends(self._down):
                assert main(args + ["--concurrency", width]) == 3
        assert_same_run(tmp_path / "width1", tmp_path / "width4")
        assert json.loads((tmp_path / "width1" / "eval_result.partial.json").read_text(encoding="utf-8"))["total"] == 6

    def test_subject_breakdown_printed(self, tagged_file, data_dir, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(tagged_file),
                str(data_dir / "college_biology_test.csv"),
                "--format",
                "mmlu_csv",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert re.search(r"^college_biology: \d+\.\d{2}%$", capsys.readouterr().out, re.MULTILINE)

    def test_per_subject_computed_once(self, tagged_file, data_dir, tmp_path, capsys, monkeypatch):
        # eval_result.json and the printed lines come from one computation.
        calls = []
        per_subject = EvalResult.per_subject.fget

        def counted(result: EvalResult) -> dict:
            calls.append(result)
            return per_subject(result)

        monkeypatch.setattr(EvalResult, "per_subject", property(counted))
        dataset = str(data_dir / "college_biology_test.csv")
        assert main(["eval", str(tagged_file), dataset, "--format", "mmlu_csv", "--out", str(tmp_path / "o")]) == 0
        assert "college_biology: " in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "extra, config, dataset, error",
        [
            (["--split", ""], None, None, "split must be non-empty text, got ''"),
            ([], "[eval]\nsplit =\n", None, "split must be non-empty text, got ''"),
            (["--format", "mmlu_csv"], None, "_test.csv", "cannot load dataset {dataset}: dataset name must be non-empty"),
        ],
        ids=["split-flag", "split-key", "mmlu-csv-without-subject"],
    )
    def test_empty_dataset_name_or_split_exits_two(
        self, tagged_file, dataset_file, data_dir, tmp_path, capsys, extra, config, dataset, error
    ):
        if config:
            (tmp_path / "mpo.ini").write_text(config, encoding="utf-8")
            extra = ["--config", str(tmp_path / "mpo.ini")]
        if dataset:
            dataset_file = tmp_path / dataset
            dataset_file.write_bytes((data_dir / "college_biology_test.csv").read_bytes())
        out = tmp_path / "o"
        assert main(["eval", str(tagged_file), str(dataset_file), *extra, "--out", str(out)]) == 2
        assert f"error: {error.format(dataset=dataset_file)}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_dataset_exits_two(self, tagged_file, tmp_path, capsys):
        dataset = tmp_path / "items.jsonl"
        dataset.write_bytes(b'{"id": "1", "question": "caf\xe9?", "choices": {"A": "x", "B": "y"}, "answer": "A"}\n')
        assert main(["eval", str(tagged_file), str(dataset), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cannot load dataset {dataset}: " in err and "utf-8" in err


class TestRecordedFailures:
    """A run that absorbed failed backend calls replays from its transcript,
    at any width and from its lines in any order."""

    @staticmethod
    def _replays(recorded: Path, argv: list[str], tmp_path: Path, code: int):
        for width in ("1", "5"):
            for order in ("recorded", "reversed"):
                transcript = reordered(recorded / "transcript.jsonl", order, tmp_path / f"{order}.jsonl")
                out = tmp_path / f"replay{width}-{order}"
                assert main([*argv, "--replay", str(transcript), "--concurrency", width, "--out", str(out)]) == code
                yield out

    @pytest.mark.parametrize("dedup, fails", [("lexical", {3}), ("llm", {3, 5})])
    def test_optimize_with_failed_calls_replays(self, dedup, fails, tagged_file, tmp_path):
        # One round: in a later one a failed call's request can come again and
        # succeed, and which twin gets the failure follows transcript order (ROADMAP item 3).
        argv = ["optimize", str(tagged_file), "--iterations", "1", "--dedup", dedup]
        recorded = tmp_path / "recorded"
        with hooked_backends(refused(fails)):
            assert main([*argv, "--mock", "--record", "--out", str(recorded)]) == 0
        records = Transcript.load(recorded / "transcript.jsonl")
        assert [record["error"] for record in records if "error" in record] == [f"call {n} refused" for n in sorted(fails)]
        rounds = jsonl(recorded / "gradients.jsonl")
        failures = [failure["reason"].split(":")[0] for round_ in rounds for failure in round_["failures"]]
        assert failures == ["critique failed", "update failed"][: len(fails)]
        assert_same_run(recorded, *self._replays(recorded, argv, tmp_path, 0), masked=True)

    @pytest.mark.parametrize("fails, code, artifact", [({3}, 0, "eval_result.json"), (set(range(1, 7)), 3, "eval_result.partial.json")])
    def test_eval_with_failed_solves_replays(self, fails, code, artifact, tagged_file, dataset_file, tmp_path):
        argv = ["eval", str(tagged_file), str(dataset_file)]
        recorded = tmp_path / "recorded"
        with hooked_backends(refused(fails)):
            assert main([*argv, "--mock", "--record", "--concurrency", "1", "--out", str(recorded)]) == code
        notes = [record["note"] for record in json.loads((recorded / artifact).read_text(encoding="utf-8"))["records"]]
        assert [number + 1 for number, note in enumerate(notes) if note] == sorted(fails)
        assert_same_run(recorded, *self._replays(recorded, argv, tmp_path, code))

    def test_readme_transcript_keys(self):
        """The README's key list is, in order, the keys of a failed call's line,
        and without ``error`` those of a successful call's line."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Record and replay\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^- `(\w+)`:", section, flags=re.M)

        def reply(turns, params):
            if turns[0].content == "fail":
                raise BackendError("refused")
            return "reply"

        recorder = Recorder(ScriptedBackend(reply))
        recorder.complete((ChatTurn("user", "pass"),), GenerationParams())
        with pytest.raises(BackendError):
            recorder.complete((ChatTurn("user", "fail"),), GenerationParams())
        succeeded, failed = recorder.records()
        assert documented == list(failed)
        assert [key for key in documented if key != "error"] == list(succeeded)


class TestAbortOutput:
    """An aborted run's exit code and its whole stdout and stderr, as ``mpo`` prints
    them in a fresh interpreter. Each abort replays a recording, so no hook is needed."""

    @staticmethod
    def _mpo(*argv) -> tuple[int, str, str]:
        result = fresh_python("-m", "mpo.cli", *map(str, argv))
        return result.returncode, result.stdout, result.stderr

    def test_optimize_replay_shortfall(self, tagged_file, tmp_path):
        for rounds in ("1", "2"):
            argv = ["optimize", str(tagged_file), "--iterations", rounds, "--record", "--out", str(tmp_path / rounds)]
            assert main(argv) == 0
        missed = Transcript.load(tmp_path / "2" / "transcript.jsonl")[5]["request_digest"]  # round 2's first call
        out, replay = tmp_path / "over", tmp_path / "1" / "transcript.jsonl"
        assert self._mpo("optimize", tagged_file, "--iterations", "2", "--replay", replay, "--out", out) == (
            3,
            "",
            f"aborted: run aborted at iteration 1: no unconsumed recorded response for request digest {missed}; "
            f"the run diverged from the recording\npartial artifacts kept in {out}\n",
        )

    def test_eval_majority_failure(self, tagged_file, dataset_file, tmp_path):
        argv = ["eval", str(tagged_file), str(dataset_file)]
        with hooked_backends(refused(range(1, 7))):
            assert main([*argv, "--record", "--out", str(tmp_path / "recorded")]) == 3
        out, replay = tmp_path / "replayed", tmp_path / "recorded" / "transcript.jsonl"
        failed = [item.id for item in load_dataset(dataset_file, "generic_jsonl").items[:6]]
        assert self._mpo(*argv, "--replay", replay, "--out", out) == (
            3,
            "",
            "".join(f"WARNING mpo.evaluation: item {id_}: solver failed: call {n} refused\n" for n, id_ in enumerate(failed, 1))
            + f"aborted: 6 of 10 items failed; aborting\npartial result kept in {out / 'eval_result.partial.json'}\n",
        )

    def test_decompose_extractor_fault(self, data_dir, tmp_path):
        argv = ["decompose", str(data_dir / "multi_task_raw.txt")]
        with hooked_backends(refused({1})):
            assert main([*argv, "--record", "--out", str(tmp_path / "recorded")]) == 3
        out, replay = tmp_path / "replayed", tmp_path / "recorded" / "transcript.jsonl"
        assert self._mpo(*argv, "--replay", replay, "--out", out) == (3, "", "aborted: call 1 refused\n")
        assert [path.name for path in out.iterdir()] == []


class TestCompare:
    def _write_result(self, tmp_path, name, correct_count, dataset, state) -> Path:
        correct = {item.id for item in dataset.items[:correct_count]}
        result = evaluate(state, dataset, scored_solver(dataset, correct))
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result.to_dict()), encoding="utf-8")
        return path

    def test_table_on_stdout(self, tagged_prompt, dataset_file, tmp_path, capsys):
        dataset = load_dataset(dataset_file, "generic_jsonl")
        a = self._write_result(tmp_path, "baseline.json", 5, dataset, tagged_prompt)
        b = self._write_result(tmp_path, "tuned.json", 8, dataset, tagged_prompt)
        assert main(["compare", str(a), str(b)]) == 0
        stdout = capsys.readouterr().out
        assert "baseline" in stdout
        assert "tuned" in stdout
        assert "+30.00" in stdout

    def test_out_flag_writes_json(self, tagged_prompt, dataset_file, tmp_path, capsys):
        dataset = load_dataset(dataset_file, "generic_jsonl")
        a = self._write_result(tmp_path, "baseline.json", 5, dataset, tagged_prompt)
        b = self._write_result(tmp_path, "tuned.json", 8, dataset, tagged_prompt)
        out = tmp_path / "cmp"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert payload["rows"][1]["delta_pct"] == "+30.00"

    def test_colliding_stems_get_parent_labels(
        self, tagged_prompt, dataset_file, tmp_path, capsys
    ):
        dataset = load_dataset(dataset_file, "generic_jsonl")
        a = self._write_result(tmp_path, "x/result.json", 5, dataset, tagged_prompt)
        b = self._write_result(tmp_path, "y/result.json", 8, dataset, tagged_prompt)
        assert main(["compare", str(a), str(b)]) == 0
        stdout = capsys.readouterr().out
        assert "x/result" in stdout
        assert "y/result" in stdout
        # When the parent-qualified labels collide too, each row is labelled by its path as given.
        a = self._write_result(tmp_path, "x/run/eval_result.json", 5, dataset, tagged_prompt)
        b = self._write_result(tmp_path, "y/run/eval_result.json", 8, dataset, tagged_prompt)
        assert main(["compare", str(a), str(b), "--out", str(tmp_path / "cmp")]) == 0
        rows = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))["rows"]
        assert [row["label"] for row in rows] == [str(a), str(b)]
        assert f"{a}  " in capsys.readouterr().out

    def test_file_in_working_directory_labelled_by_its_name(
        self, tagged_prompt, dataset_file, tmp_path, capsys, monkeypatch
    ):
        # ``r.json`` has the empty path as its parent; its label names the directory it is in.
        dataset = load_dataset(dataset_file, "generic_jsonl")
        cwd = tmp_path / "runs"
        self._write_result(cwd, "r.json", 5, dataset, tagged_prompt)
        self._write_result(cwd, "a/r.json", 8, dataset, tagged_prompt)
        monkeypatch.chdir(cwd)
        assert main(["compare", "r.json", "a/r.json", "--out", "cmp"]) == 0
        rows = json.loads((cwd / "cmp" / "comparison.json").read_text(encoding="utf-8"))["rows"]
        assert [row["label"] for row in rows] == ["runs/r", "a/r"]

    def test_item_set_mismatch_exits_two(
        self, tagged_prompt, dataset_file, data_dir, tmp_path, capsys
    ):
        ten = load_dataset(dataset_file, "generic_jsonl")
        arc = load_dataset(data_dir / "arc_sample.jsonl", "arc_jsonl")
        a = self._write_result(tmp_path, "a.json", 5, ten, tagged_prompt)
        b_result = evaluate(tagged_prompt, arc, gold_solver(arc))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(b_result.to_dict()), encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 2
        assert "different item set" in capsys.readouterr().err

    def test_record_correct_flag_must_match_its_letters(self, tagged_prompt, dataset_file, tmp_path, capsys):
        dataset = load_dataset(dataset_file, "generic_jsonl")
        a = self._write_result(tmp_path, "a.json", 0, dataset, tagged_prompt)
        payload = json.loads(a.read_text(encoding="utf-8"))
        payload["records"][0]["correct"] = "false"  # a non-empty string, so truthy
        b = tmp_path / "b.json"
        b.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 2
        assert "'correct' is 'false'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("tamper", "reason"),
        [
            ({"dataset_name": [1, 2]}, "result field 'dataset_name' must be a string"),
            ({"split": None}, "result field 'split' must be a string"),
            ({"prompt_digest": 7}, "result field 'prompt_digest' must be a string"),
            ("repeat the first record", "record ids must be unique"),
        ],
        ids=["list-name", "null-split", "number-digest", "repeated-id"],
    )
    def test_result_evaluate_cannot_write_exits_two_naming_it(
        self, tamper, reason, tagged_prompt, dataset_file, tmp_path, capsys
    ):
        good = self._write_result(tmp_path, "g.json", 5, load_dataset(dataset_file, "generic_jsonl"), tagged_prompt)
        payload = json.loads(good.read_text(encoding="utf-8"))
        if isinstance(tamper, dict):
            payload.update(tamper)
        else:  # the baseline repeats its one id, so the good file's item set differs from it
            payload["records"] = payload["records"][:1] * 2
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["compare", str(bad), str(good), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad} is not an evaluation result file: {reason}\n"
        assert not out.exists()

    def test_non_result_file_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("{}", encoding="utf-8")
        b.write_text("[1, 2]", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 2
        assert "not an evaluation result file" in capsys.readouterr().err

    @pytest.mark.parametrize("again", ["r.json", "./r.json"])
    def test_one_file_given_twice_exits_two(self, again, tagged_prompt, dataset_file, tmp_path, capsys, monkeypatch):
        self._write_result(tmp_path, "r.json", 5, load_dataset(dataset_file, "generic_jsonl"), tagged_prompt)
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "r.json", again, "--out", "cmp"]) == 2
        assert capsys.readouterr() == ("", f"error: {again} is given twice\n")
        assert not (tmp_path / "cmp").exists()

    def test_single_file_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("{}", encoding="utf-8")
        assert main(["compare", str(a)]) == 2


class TestDiff:
    def test_identical_exits_zero(self, tagged_file, capsys):
        assert main(["diff", str(tagged_file), str(tagged_file)]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_fixture_pair_exits_one(self, data_dir, capsys):
        code = main(
            [
                "diff",
                str(data_dir / "multi_task_tagged.txt"),
                str(data_dir / "multi_task_refined.txt"),
            ]
        )
        assert code == 1
        stdout = capsys.readouterr().out
        assert "==" in stdout
        assert "token delta" in stdout

    def test_json_output(self, data_dir, tmp_path, capsys):
        code = main(
            [
                "diff",
                "--json",
                str(data_dir / "multi_task_tagged.txt"),
                str(data_dir / "multi_task_refined.txt"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["changed"] is True
        assert "system_role" in payload["sections"]

    def test_unparseable_operand_exits_two(self, tagged_file, tmp_path, capsys):
        loose = tmp_path / "loose.txt"
        loose.write_text("free text\n", encoding="utf-8")
        assert main(["diff", str(tagged_file), str(loose)]) == 2


class TestCommandFlags:
    @staticmethod
    def _inputs(command: str, data_dir: Path, tmp_path: Path) -> list[str]:
        prompt, dataset = str(data_dir / "multi_task_tagged.txt"), data_dir / "mcq_ten.jsonl"
        if command == "compare":
            items = load_dataset(dataset, "generic_jsonl")
            state = parse_structured_prompt(Path(prompt).read_text(encoding="utf-8"))
            result = json.dumps(evaluate(state, items, gold_solver(items)).to_dict())
            for name in ("a.json", "b.json"):
                (tmp_path / name).write_text(result, encoding="utf-8")
            return [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        return {"decompose": [prompt], "optimize": [prompt], "eval": [prompt, str(dataset)], "diff": [prompt, prompt]}[command]

    @pytest.mark.parametrize("flag", FLAG_VALUES)
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_command_takes_only_the_flags_it_reads(self, command, flag, data_dir, tmp_path, monkeypatch, capsys):
        value = FLAG_VALUES[flag]
        argv = [command, *self._inputs(command, data_dir, tmp_path), flag, *([value] if value else [])]
        if flag in COMMAND_FLAGS[command]:
            parsed = getattr(build_parser().parse_args(argv), flag[2:])
            assert parsed == (True if value is None else type(parsed)(value))
            return
        # Run from an empty directory: neither OUT nor the default mpo-run may appear in it.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"mpo: error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not any(cwd.iterdir())

    def test_parsers_hold_exactly_the_listed_flags(self):
        assert parser_flags() == {command: set(flags) for command, flags in COMMAND_FLAGS.items()}
        assert sum(map(len, COMMAND_FLAGS.values())) == 28


class TestArgumentErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_missing_operand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize"])
        assert excinfo.value.code == 2


# Each text input a command reads, and the command that reads it; "{root}"
# is the directory holding that run's inputs and its OUT.
BOM_CASES = [
    pytest.param("prompt.txt", ["optimize", "{root}/prompt.txt", "--mock", "--record", "--iterations", "1"], id="prompt"),
    pytest.param("raw.txt", ["decompose", "{root}/raw.txt", "--mock", "--record"], id="decompose-input"),
    pytest.param("items.jsonl", ["eval", "{root}/prompt.txt", "{root}/items.jsonl", "--mock", "--record"], id="generic_jsonl"),
    pytest.param(
        "arc.jsonl", ["eval", "{root}/prompt.txt", "{root}/arc.jsonl", "--format", "arc_jsonl", "--mock", "--record"], id="arc_jsonl"
    ),
    pytest.param(
        "college_biology_test.csv",
        ["eval", "{root}/prompt.txt", "{root}/college_biology_test.csv", "--format", "mmlu_csv", "--mock", "--record"],
        id="mmlu_csv",
    ),
    pytest.param("mpo.ini", ["optimize", "{root}/prompt.txt", "--config", "{root}/mpo.ini", "--mock", "--record"], id="config"),
    pytest.param("gradient.txt", ["optimize", "{root}/prompt.txt", "--config", "{root}/mpo.ini", "--mock", "--record"], id="template"),
    pytest.param("transcript.jsonl", ["optimize", "{root}/prompt.txt", "--replay", "{root}/transcript.jsonl", "--iterations", "1"], id="transcript"),
    pytest.param("a.json", ["compare", "{root}/a.json", "{root}/b.json"], id="compare"),
]


class TestByteOrderMark:
    """A file saved with a UTF-8 byte-order mark, as some Windows editors do,
    reads as the same file without one."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory) -> dict[str, str]:
        data_dir, made = Path(__file__).parent / "data", tmp_path_factory.mktemp("inputs")
        recording = ["optimize", str(data_dir / "multi_task_tagged.txt"), "--mock", "--record", "--iterations", "1"]
        assert main([*recording, "--out", str(made / "recorded")]) == 0
        for name in ("a", "b"):
            assert main(["eval", str(data_dir / "multi_task_tagged.txt"), str(data_dir / "mcq_ten.jsonl"), "--mock", "--out", str(made / name)]) == 0
        return {
            "prompt.txt": (data_dir / "multi_task_tagged.txt").read_text(encoding="utf-8"),
            "raw.txt": (data_dir / "multi_task_raw.txt").read_text(encoding="utf-8"),
            "items.jsonl": (data_dir / "mcq_ten.jsonl").read_text(encoding="utf-8"),
            "arc.jsonl": (data_dir / "arc_sample.jsonl").read_text(encoding="utf-8"),
            "college_biology_test.csv": (data_dir / "college_biology_test.csv").read_text(encoding="utf-8"),
            "mpo.ini": "[optimizer]\niterations = 1\nmax_section_tokens = 55\n\n[templates]\ngradient = {root}/gradient.txt\n",
            "gradient.txt": default_template("gradient").text,
            "transcript.jsonl": (made / "recorded" / "transcript.jsonl").read_text(encoding="utf-8"),
            "a.json": (made / "a" / "eval_result.json").read_text(encoding="utf-8"),
            "b.json": (made / "b" / "eval_result.json").read_text(encoding="utf-8"),
        }

    @staticmethod
    def run(root: Path, inputs: dict[str, str], marked: str | None, argv: list[str], capsys) -> tuple:
        """The command's exit code, output with ``root`` masked, and what it
        wrote: transcript records without their timestamps, other files as bytes."""
        root.mkdir()
        for name, text in inputs.items():
            text = text.replace("{root}", str(root))
            (root / name).write_text("\ufeff" + text if name == marked else text, encoding="utf-8")
        capsys.readouterr()
        code = main([part.replace("{root}", str(root)) for part in argv] + ["--out", str(root / "out")])
        shown = tuple(text.replace(str(root), "ROOT") for text in capsys.readouterr())
        wrote = {}
        for path in sorted((root / "out").iterdir()):
            assert not path.read_bytes().startswith(b"\xef\xbb\xbf"), path.name
            if path.name == "transcript.jsonl":
                wrote[path.name] = [{k: v for k, v in r.items() if k != "timestamp"} for r in Transcript.load(path)]
            else:
                wrote[path.name] = path.read_bytes()
        return code, shown, wrote

    @pytest.mark.parametrize("marked, argv", BOM_CASES)
    def test_marked_input_runs_as_unmarked(self, inputs, tmp_path, capsys, marked, argv):
        plain = self.run(tmp_path / "plain", inputs, None, argv, capsys)
        assert plain[0] == 0
        assert self.run(tmp_path / "bom", inputs, marked, argv, capsys) == plain

    def test_non_utf8_config_names_line_and_offset(self, tmp_path):
        ini = tmp_path / "mpo.ini"
        ini.write_bytes(b"\xef\xbb\xbf[eval]\nsplit = caf\xe9\n")
        with pytest.raises(CLIError, match=r"^cannot read config file: .* \(line 2, file byte offset 21\)$"):
            parse_config(["optimize", "p.txt", "--config", str(ini)])
