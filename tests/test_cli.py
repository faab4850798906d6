"""End-to-end tests for the command-line front end."""

import ast
import dataclasses
import inspect
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geckit
import geckit.experiment
from geckit import cli
from geckit.cli import _COMMANDS, _GLOBAL_OPTS, build_parser, main, resolve_options
from geckit.colacorpus import FilterConfig, SplitConfig
from geckit.errors import ConfigError
from geckit.gec import ModelConfig, TrainStage, decode
from geckit.judge import MAX_ARRAY_SIZE, JudgeConfig
from geckit.synth import SizeConfig
from geckit.textcore import PUNCT, AnnotatedPair, Edit, Sentence, apply_edits, emit_m2, parse_m2

SMALL_BENCH = [
    "--preset",
    "mix_a",
    "--gec-train",
    "60",
    "--gec-dev",
    "12",
    "--gec-test",
    "20",
    "--cola-pairs",
    "300",
    "--seed",
    "5",
]


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert main(["synth-gen", *SMALL_BENCH, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def judge_dir(tmp_path_factory, bench_dir):
    out = tmp_path_factory.mktemp("judge")
    code = main(
        [
            "train-judge",
            "--train",
            str(bench_dir / "cola_train.tsv"),
            "--dev",
            str(bench_dir / "cola_dev.tsv"),
            "--dim",
            "16384",
            "--epochs",
            "12",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def gec_dir(tmp_path_factory, bench_dir):
    out = tmp_path_factory.mktemp("gec")
    code = main(
        [
            "train-gec",
            "--train",
            str(bench_dir / "gec_train.m2"),
            "--epochs",
            "2",
            "--embed-dim",
            "8",
            "--hidden-dim",
            "12",
            "--batch-size",
            "16",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def decoded_dir(tmp_path_factory, bench_dir, gec_dir):
    out = tmp_path_factory.mktemp("decoded")
    sources = out / "sources.txt"
    pairs = parse_m2((bench_dir / "gec_test.m2").read_text(encoding="utf-8"))
    sources.write_text("".join(p.source.text + "\n" for p in pairs), encoding="utf-8")
    code = main(
        [
            "decode",
            "--model",
            str(gec_dir / "gec_model"),
            "--input",
            str(sources),
            "--beam",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["synth-gen", "--bogus", "3"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_missing_required_option(self, capsys):
        assert main(["evaluate", "--hyp", "x.txt"]) == 1
        assert "gold" in capsys.readouterr().err


def _loaded_by_cli_import(*prefixes: str) -> str:
    """The modules under the prefixes that a fresh `import geckit.cli` loads."""
    code = (
        "import sys, geckit.cli;"
        f" print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_unloaded(bench_dir, tmp_path):
    """No command needs scipy: neither importing the CLI nor training a judge loads it."""
    assert _loaded_by_cli_import("scipy") == "[]"
    argv = [
        "train-judge", "--train", str(bench_dir / "cola_train.tsv"),
        "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "4096", "--epochs", "2",
        "--out", str(tmp_path / "judge"),
    ]  # fmt: skip
    code = (
        "import sys, geckit.cli;"
        f" code = geckit.cli.main({argv!r});"
        " print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_import_leaves_process_pools_unloaded():
    """Only ablate runs a process pool, so no other command pays for importing one."""
    assert _loaded_by_cli_import("multiprocessing.pool", "concurrent.futures.process") == "[]"


_MODEL_MODULES = ("geckit.judge", "geckit.gec", "geckit.experiment")
_STAGE_MODULES = ("geckit.align", "geckit.colacorpus", "geckit.evalmetrics", "geckit.synth")
_LOAD_ROWS = {
    "import": (None, ("numpy", *_MODEL_MODULES, *_STAGE_MODULES)),
    "help": (["--help"], ("numpy", *_MODEL_MODULES, *_STAGE_MODULES)),
    "refused": (["synth-gen", "--preset", "nope"], ("numpy", *_MODEL_MODULES, *_STAGE_MODULES)),
    "evaluate": (
        ["evaluate", "--hyp", "{sources}", "--gold", "{bench}/gec_test.m2"],
        ("numpy", "geckit.colacorpus", "geckit.synth"),
    ),
    "error-analysis": (
        ["error-analysis", "--hyp", "{sources}", "--gold", "{bench}/gec_test.m2"],
        ("numpy", "geckit.colacorpus", "geckit.synth"),
    ),
    "extract-edits": (
        ["extract-edits", "--source", "{sources}", "--target", "{sources}"],
        ("numpy", "geckit.colacorpus", "geckit.evalmetrics", "geckit.synth"),
    ),
    "build-cola": (
        ["build-cola", "--m2", "{bench}/gec_dev.m2"],
        ("numpy", "geckit.align", "geckit.evalmetrics", "geckit.synth"),
    ),
    "synth-gen": (
        ["synth-gen", "--gec-train", "20", "--gec-dev", "4", "--gec-test", "4", "--cola-pairs", "40"],
        (*_MODEL_MODULES, "geckit.evalmetrics"),
    ),
    "train-judge": (
        ["train-judge", "--train", "{bench}/cola_train.tsv", "--dev", "{bench}/cola_dev.tsv",
         "--dim", "1024", "--epochs", "1"],
        ("geckit.gec", "geckit.experiment", *_STAGE_MODULES),
    ),  # fmt: skip
    "judge-eval": (
        ["judge-eval", "--model", "{judge}/judge.json", "--data", "{bench}/cola_dev.tsv"],
        ("geckit.gec", "geckit.experiment", *_STAGE_MODULES),
    ),
    "train-gec": (
        ["train-gec", "--train", "{bench}/gec_dev.m2", "--epochs", "1", "--embed-dim", "4",
         "--hidden-dim", "4"],
        ("geckit.experiment", "multiprocessing.pool", "geckit.colacorpus", "geckit.synth"),
    ),  # fmt: skip
    "decode": (
        ["decode", "--model", "{gec}/gec_model", "--input", "{sources}", "--beam", "1"],
        ("numpy.random", "geckit.experiment", "multiprocessing.pool", "geckit.colacorpus",
         "geckit.synth"),
    ),  # fmt: skip
    "ablate": (
        ["ablate", "--train", "{bench}/gec_dev.m2", "--test", "{bench}/gec_dev.m2",
         "--judge", "{judge}/judge.json", "--seeds", "0", "--epochs", "1", "--embed-dim", "4",
         "--hidden-dim", "4", "--beam", "2"],
        ("multiprocessing", "geckit.colacorpus", "geckit.synth"),
    ),  # fmt: skip
}
# The rows whose invocation is refused: it exits 1 while its options resolve.
_LOAD_EXIT_CODES = {"refused": 1}


@pytest.mark.parametrize("row", list(_LOAD_ROWS))
def test_each_invocation_loads_only_what_it_runs(row, bench_dir, judge_dir, gec_dir, decoded_dir, tmp_path):
    template, unloaded = _LOAD_ROWS[row]
    argv = None
    if template is not None:
        paths = {"bench": bench_dir, "judge": judge_dir, "gec": gec_dir, "sources": decoded_dir / "sources.txt"}
        argv = [arg.format(**paths) for arg in template]
        argv += [] if argv == ["--help"] else ["--out", str(tmp_path / "out")]
    code = (
        "import json, sys, geckit.cli\n"
        f"argv = {argv!r}\n"
        "try:\n"
        "    code = 0 if argv is None else geckit.cli.main(argv)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == _LOAD_EXIT_CODES.get(row, 0), proc.stderr
    assert sorted(set(unloaded) & set(loaded)) == []


def test_ablate_forks_with_numpy_random_loaded(bench_dir, judge_dir, tmp_path):
    """The parent loads numpy.random before it forks, so the groups share its pages."""
    argv = [
        "ablate", "--train", str(bench_dir / "gec_dev.m2"), "--test", str(bench_dir / "gec_dev.m2"),
        "--judge", str(judge_dir / "judge.json"), "--seeds", "0", "--epochs", "1",
        "--embed-dim", "4", "--hidden-dim", "4", "--beam", "2", "--out", str(tmp_path / "out"),
    ]  # fmt: skip
    code = (
        "import sys, geckit.cli, geckit.experiment\n"
        "run_groups = geckit.experiment._run_groups\n"
        "loaded = []\n"
        "def recording(*args):\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "    return run_groups(*args)\n"
        "geckit.experiment._run_groups = recording\n"
        f"print(geckit.cli.main({argv!r}), loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [True]"


def test_ablate_forks_from_one_thread(bench_dir, judge_dir, tmp_path):
    """With OPENBLAS_NUM_THREADS unset, ablate still forks its groups from a single-threaded process."""
    argv = [
        "ablate", "--train", str(bench_dir / "gec_dev.m2"), "--test", str(bench_dir / "gec_dev.m2"),
        "--judge", str(judge_dir / "judge.json"), "--seeds", "0", "--epochs", "1",
        "--embed-dim", "4", "--hidden-dim", "4", "--beam", "2", "--out", str(tmp_path / "out"),
    ]  # fmt: skip
    # Counted at each fork; importing geckit.experiment here would load numpy first.
    code = (
        "import os, re, geckit.cli\n"
        "fork = os.fork\n"
        "threads = []\n"
        "def recording():\n"
        "    status = open('/proc/self/status', encoding='utf-8').read()\n"
        "    threads.append(int(re.search(r'^Threads:\\s*(\\d+)$', status, re.M).group(1)))\n"
        "    return fork()\n"
        "os.fork = recording\n"
        f"print(geckit.cli.main({argv!r}), threads)\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(geckit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [1, 1]"


_HELP_SNAPSHOT = json.loads((Path(__file__).parent / "help_snapshot.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(_HELP_SNAPSHOT))
def test_help_is_unchanged(command, monkeypatch):
    """`geckit --help` and each `geckit <cmd> --help` print the snapshot's bytes at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as excinfo:
        main(["--help"] if command == "geckit" else [command, "--help"])
    assert excinfo.value.code == 0
    assert out.getvalue() == _HELP_SNAPSHOT[command]


# (registry options, key, library class or function, its field or parameter)
_LIBRARY_DEFAULTS = [
    *((_COMMANDS["train-judge"].opts, f.name, JudgeConfig, f.name) for f in dataclasses.fields(JudgeConfig)),
    *((_COMMANDS["synth-gen"].opts, f.name, SizeConfig, f.name) for f in dataclasses.fields(SizeConfig)),
    *((_COMMANDS["build-cola"].opts, f.name, FilterConfig, f.name) for f in dataclasses.fields(FilterConfig)),
    (_COMMANDS["build-cola"].opts, "dev_frac", SplitConfig, "dev"),
    (cli._TRAIN_OPTS, "embed_dim", ModelConfig, "embed_dim"),
    (cli._TRAIN_OPTS, "hidden_dim", ModelConfig, "hidden_dim"),
    (cli._TRAIN_OPTS, "batch_size", TrainStage, "batch_size"),
    (cli._TRAIN_OPTS, "optimizer", TrainStage, "optimizer"),
    (cli._BEAM_OPTS, "rerank_lam", decode, "lam"),
]


@pytest.mark.parametrize(
    "opts,key,owner,name",
    _LIBRARY_DEFAULTS,
    ids=[f"{key}={owner.__name__}.{name}" for _, key, owner, name in _LIBRARY_DEFAULTS],
)
def test_cli_default_is_the_library_default(opts, key, owner, name):
    """The registry repeats the library's defaults, because cli imports without numpy."""
    assert opts[key].default == inspect.signature(owner).parameters[name].default


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"gec_train": 30, "seed": 9}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "synth-gen",
                "--config",
                str(config),
                "--gec-train",
                "25",
                "--gec-dev",
                "6",
                "--gec-test",
                "8",
                "--cola-pairs",
                "80",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        snapshot = json.loads((out / "synth-gen.config.json").read_text(encoding="utf-8"))
        assert snapshot["subcommand"] == "synth-gen"
        assert snapshot["gec_train"] == 25  # flag beats config
        assert snapshot["seed"] == 9  # config beats default

    def test_env_overrides_config_and_loses_to_flag(self, tmp_path, monkeypatch):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 9}), encoding="utf-8")
        monkeypatch.setenv("GECKIT_SEED", "7")
        out = tmp_path / "out_env"
        args = [
            "synth-gen",
            "--config",
            str(config),
            "--gec-train",
            "25",
            "--gec-dev",
            "6",
            "--gec-test",
            "8",
            "--cola-pairs",
            "80",
        ]
        assert main([*args, "--out", str(out)]) == 0
        snapshot = json.loads((out / "synth-gen.config.json").read_text(encoding="utf-8"))
        assert snapshot["seed"] == 7
        out2 = tmp_path / "out_flag"
        assert main([*args, "--seed", "3", "--out", str(out2)]) == 0
        snapshot2 = json.loads((out2 / "synth-gen.config.json").read_text(encoding="utf-8"))
        assert snapshot2["seed"] == 3

    def test_bad_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GECKIT_SEED", "abc")
        assert main(["synth-gen", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sead": 9}), encoding="utf-8")
        assert main(["synth-gen", "--config", str(config)]) == 1
        assert "sead" in capsys.readouterr().err

    def test_invalid_config_json(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json", encoding="utf-8")
        assert main(["synth-gen", "--config", str(config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["synth-gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": 2}), encoding="utf-8")
        assert main(["synth-gen", "--config", str(config)]) == 1
        assert "unknown config key 'threads'" in capsys.readouterr().err
        assert main(["synth-gen", "--threads", "2", "--out", str(tmp_path / "x")]) == 1

    # Removed options: --mode everywhere, and build-cola's train and test
    # fractions (train is what the dev fraction leaves; M2 input has no test).
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            pytest.param(command, "--mode", "character", id=command)
            for command in (
                "extract-edits",
                "build-cola",
                "train-judge",
                "judge-eval",
                "train-gec",
                "decode",
                "evaluate",
                "error-analysis",
                "ablate",
            )
        ]
        + [
            pytest.param("build-cola", flag, "0.1", id=f"build-cola{flag}")
            for flag in ("--train-frac", "--test-frac")
        ],
    )
    def test_mode_is_not_an_option(self, tmp_path, capsys, command, flag, value):
        key = flag[2:].replace("-", "_")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown config key {key!r}" in err
        # Not even as a prefix of --model (decode, judge-eval).
        assert main([command, flag, value, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unrecognized arguments: {flag}" in err
        assert not (tmp_path / "x").exists()

    # Required options point nowhere: the seed is rejected before any file is read.
    NEGATIVE_SEED_ARGS = {
        "synth-gen": [],
        "build-cola": ["--m2", "t.m2"],
        "train-judge": ["--train", "t.tsv", "--dev", "d.tsv"],
        "train-gec": ["--train", "t.m2"],
    }
    ABLATE_ARGS = ["--train", "t.m2", "--test", "s.m2", "--judge", "j.json"]

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("command", list(NEGATIVE_SEED_ARGS))
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, monkeypatch, command, source):
        argv = [command, *self.NEGATIVE_SEED_ARGS[command], "--out", str(tmp_path / "x")]
        if source == "flag":
            argv += ["--seed", "-2"]
        elif source == "config":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": -2}), encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("GECKIT_SEED", "-2")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {command}: option 'seed' must be >= 0, got -2\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_ablate_seeds_is_one_error_line(self, tmp_path, capsys, source):
        argv = ["ablate", *self.ABLATE_ARGS, "--out", str(tmp_path / "x")]
        if source == "flag":
            argv.append("--seeds=-1,2")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seeds": [-1, 2]}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: ablate: option 'seeds' must all be >= 0, got [-1, 2]\n"
        assert not (tmp_path / "x").exists()

    def test_repeated_ablate_seed_is_one_error_line(self, tmp_path, capsys):
        argv = ["ablate", *self.ABLATE_ARGS, "--seeds", "7,7"]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: ablate: option 'seeds' must be unique, got [7, 7]\n"
        assert not (tmp_path / "x").exists()

    def test_repeated_error_type_is_one_error_line(self, tmp_path, capsys):
        argv = ["error-analysis", "--hyp", "h.txt", "--gold", "g.m2", "--types", "PUNCT,PUNCT"]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == "error: error-analysis: option 'types' must be unique, got ['PUNCT', 'PUNCT']\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, spec in _COMMANDS.items()
            for key, opt in spec.opts.items()
            if opt.kind == "float"
        ],
    )
    def test_non_finite_float_is_one_error_line(self, tmp_path, capsys, command, key, value, source):
        argv = [command, "--out", str(tmp_path / "x")]
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({key: float(value)}), encoding="utf-8")  # NaN, Infinity
            argv += ["--config", str(config)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {command}: bad value for config key {key!r}: expected a finite number\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, spec in _COMMANDS.items()
            for key, opt in {**_GLOBAL_OPTS, **spec.opts}.items()
            if opt.default is not None
        ],
    )
    def test_null_for_a_defaulted_key_is_one_error_line(self, tmp_path, capsys, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)  # where a null "out" would fall back to the default directory
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: None}), encoding="utf-8")
        argv = [command, "--config", str(config)]
        if key != "out":  # a flag overrides the config file
            argv += ["--out", str(tmp_path / "x")]
        assert main(argv) == 1
        default = {**_GLOBAL_OPTS, **_COMMANDS[command].opts}[key].default
        assert _single_error_line(capsys) == (
            f"error: {command}: bad value for config key {key!r}: null"
            f" (omit the key for the default {default!r})\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, spec in _COMMANDS.items()
            for key, opt in spec.opts.items()
            if opt.default is None
        ],
    )
    def test_null_for_a_key_without_default_is_absent(self, tmp_path, command, key):
        """Every other required option is given as a flag, so only this key can be missing."""
        spec = _COMMANDS[command]
        flags = [
            f"--{other.replace('_', '-')}=v"
            for other, opt in spec.opts.items()
            if opt.required and other != key
        ]

        def outcome(data):
            config = tmp_path / "run.json"
            config.write_text(json.dumps(data), encoding="utf-8")
            args = build_parser().parse_args([command, *flags, "--config", str(config)])
            try:
                return resolve_options(command, args)
            except ConfigError as exc:
                return str(exc)

        absent = outcome({})
        assert outcome({key: None}) == absent
        if spec.opts[key].required:
            assert f"missing required option {key!r}" in absent
        else:
            assert absent[key] is None

    # The input paths point nowhere: each value is rejected before any file is read.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["synth-gen", "--gec-train", "0"], "gec_train must be >= 1"),
            (["build-cola", "--m2", "t.m2", "--dev-frac", "1.5"], "sum to 1.5 > 1"),
            (["build-cola", "--m2", "t.m2", "--min-len", "0"], "need 1 <= min_len <= max_len"),
            (["train-judge", "--train", "t.tsv", "--dev", "d.tsv", "--dim", "2"], "too small"),
            # Bytes beyond numpy's index type, where numpy raises ValueError or OverflowError.
            (["train-judge", "--train", "t.tsv", "--dev", "d.tsv", "--dim", str(2**62)], "too large"),
            (["train-judge", "--train", "t.tsv", "--dev", "d.tsv", "--dim", str(10**20)], "too large"),
            # More unique sentences than the grammar can yield, refused before --out is made.
            (["synth-gen", "--gec-train", "100000000"], "grammar yields at most"),
        ],
    )
    def test_rejected_value_writes_nothing(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert message in _single_error_line(capsys)
        assert not (tmp_path / "x").exists()


# A valid run of each subcommand on the small fixtures, as {key: value}.
VALID_OPTIONS = {
    "synth-gen": {"preset": "mix_a", "gec_train": "4", "gec_dev": "2", "gec_test": "2", "cola_pairs": "10"},
    "extract-edits": {
        "source": "{decoded}/sources.txt", "target": "{decoded}/corrected.txt", "lexicons": "{bench}/lexicons",
    },
    "build-cola": {"m2": "{bench}/gec_dev.m2"},
    "train-judge": {"train": "{bench}/cola_dev.tsv", "dev": "{bench}/cola_dev.tsv", "dim": "64", "epochs": "1"},
    "judge-eval": {"model": "{judge}/judge.json", "data": "{bench}/cola_dev.tsv"},
    "train-gec": {
        "train": "{bench}/gec_dev.m2", "dev": "{bench}/gec_dev.m2", "loss": "plain_ce", "optimizer": "adam",
        "epochs": "1", "embed_dim": "4", "hidden_dim": "4",
    },
    "decode": {"model": "{gec}/gec_model", "input": "{decoded}/sources.txt", "judge": "{judge}/judge.json"},
    "evaluate": {"hyp": "{decoded}/corrected.txt", "gold": "{bench}/gec_test.m2", "lexicons": "{bench}/lexicons"},
    "error-analysis": {
        "hyp": "{decoded}/corrected.txt", "gold": "{bench}/gec_test.m2", "filter_mode": "drop_edits",
        "lexicons": "{bench}/lexicons",
    },
    "ablate": {
        "train": "{bench}/gec_dev.m2", "test": "{bench}/gec_dev.m2", "judge": "{judge}/judge.json",
        "optimizer": "adam", "seeds": "0", "epochs": "1", "embed_dim": "4", "hidden_dim": "4", "beam": "2",
    },
}  # fmt: skip
EMPTY_MESSAGES = {
    **dict.fromkeys(
        ("str", "m2", "tsv", "sentences", "judge", "model", "lexicons"), "expected a non-empty string"
    ),
    "m2_list": "expected a non-empty path or a non-empty list of them",
}


def _valid_options(bench_dir, judge_dir, gec_dir, decoded_dir) -> dict:
    dirs = {"bench": bench_dir, "judge": judge_dir, "gec": gec_dir, "decoded": decoded_dir}
    return {
        command: {key: value.format(**dirs) for key, value in options.items()}
        for command, options in VALID_OPTIONS.items()
    }


@pytest.fixture
def valid_options(bench_dir, judge_dir, gec_dir, decoded_dir):
    return _valid_options(bench_dir, judge_dir, gec_dir, decoded_dir)


def _options_argv(command: str, options: dict) -> list[str]:
    return [command, *(f"--{key.replace('_', '-')}={value}" for key, value in options.items())]


class TestEmptyValues:
    """An empty path or text value is refused before --out exists."""

    @pytest.mark.parametrize("command", list(VALID_OPTIONS))
    def test_the_valid_runs_pass(self, command, valid_options, tmp_path):
        """So each empty value below is the only fault of its run."""
        assert set(VALID_OPTIONS) == set(_COMMANDS)
        assert main([*_options_argv(command, valid_options[command]), "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, spec in _COMMANDS.items()
            for key, opt in {**_GLOBAL_OPTS, **spec.opts}.items()
            if opt.kind in EMPTY_MESSAGES
        ],
    )
    def test_empty_value_is_one_error_line(
        self, command, key, source, valid_options, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        options = {k: v for k, v in valid_options[command].items() if k != key}
        argv = _options_argv(command, options)
        if key != "out":
            argv += ["--out", str(tmp_path / "x")]
        opt = {**_GLOBAL_OPTS, **_COMMANDS[command].opts}[key]
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}=")
        else:
            config = tmp_path / "run.json"
            value = [str(tmp_path / "a.m2"), ""] if opt.kind == "m2_list" else ""
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert _single_error_line(capsys) == (
            f"error: {command}: bad value for config key {key!r}: {EMPTY_MESSAGES[opt.kind]}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == (["run.json"] if source == "config" else [])

    def test_empty_path_list(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"m2": []}), encoding="utf-8")
        assert main(["build-cola", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert _single_error_line(capsys) == (
            f"error: build-cola: bad value for config key 'm2': {EMPTY_MESSAGES['m2_list']}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_empty_out_from_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GECKIT_OUT", "")
        assert main(["synth-gen", "--gec-train", "4"]) == 1
        assert "config key 'out': expected a non-empty string" in _single_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_empty_config_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth-gen", "--config", "", "--out", str(tmp_path / "x")]) == 1
        assert _single_error_line(capsys) == (
            "error: synth-gen: bad value for option 'config': expected a non-empty path\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_config_key(self, valid_options, tmp_path, capsys):
        gold = valid_options["evaluate"]["gold"]
        config = tmp_path / "run.json"
        # The last value is a valid path, so only the duplicate is at fault.
        config.write_text(
            '{"gold": %s, "gold": %s}' % (json.dumps(str(tmp_path / "nope.m2")), json.dumps(gold)),
            encoding="utf-8",
        )
        argv = ["evaluate", "--hyp", valid_options["evaluate"]["hyp"], "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert _single_error_line(capsys) == f"error: {config}: duplicate config key 'gold'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# Every input option, as the registry declares it: (subcommand, key, kind).
INPUTS = [
    ("extract-edits", "source", "sentences"),
    ("extract-edits", "target", "sentences"),
    ("extract-edits", "lexicons", "lexicons"),
    ("build-cola", "m2", "m2_list"),
    ("train-judge", "train", "tsv"),
    ("train-judge", "dev", "tsv"),
    ("judge-eval", "model", "judge"),
    ("judge-eval", "data", "tsv"),
    ("train-gec", "train", "m2"),
    ("train-gec", "dev", "m2"),
    ("train-gec", "judge", "judge"),
    ("decode", "model", "model"),
    ("decode", "input", "sentences"),
    ("decode", "judge", "judge"),
    ("evaluate", "hyp", "sentences"),
    ("evaluate", "gold", "m2"),
    ("evaluate", "lexicons", "lexicons"),
    ("error-analysis", "hyp", "sentences"),
    ("error-analysis", "gold", "m2"),
    ("error-analysis", "lexicons", "lexicons"),
    ("ablate", "train", "m2"),
    ("ablate", "test", "m2"),
    ("ablate", "judge", "judge"),
]
VALUE_KINDS = ("int", "float", "str", "bool", "seeds", "names")
RECORD_KINDS = {"m2": "M2", "m2_list": "M2", "tsv": "TSV"}


def _corrupt_input(kind: str, tmp_path: Path) -> tuple[Path, Path]:
    """An input of the kind holding one bad record, and the file that holds it."""
    if kind in ("m2", "m2_list"):
        path = tmp_path / "bad.m2"
        path.write_text("S a b\nA 9 9|||R:OTHER|||c|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
        return path, path
    if kind == "tsv":
        path = tmp_path / "bad.tsv"
        path.write_text("1\ta b\n2\tc d\n", encoding="utf-8")
        return path, path
    if kind == "sentences":
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a b\n\xff c\n")
        return path, path
    if kind == "judge":
        path = tmp_path / "judge.json"
        path.write_text("{}\n", encoding="utf-8")
        return path, path
    directory = tmp_path / kind
    directory.mkdir()
    if kind == "model":
        (directory / "meta.json").write_text("{}\n", encoding="utf-8")
        return directory, directory / "meta.json"
    (directory / "morphology.tsv").write_text("VERB\tgo\n", encoding="utf-8")
    return directory, directory / "morphology.tsv"


class TestInputs:
    """Every declared input is read and checked before --out exists."""

    @staticmethod
    def _run(command: str, key: str, value, valid_options, tmp_path) -> int:
        options = {**valid_options[command], key: str(value)}
        if command == "train-gec" and key == "judge":
            options["loss"] = "dynamic"  # the only loss that reads a judge
        return main([*_options_argv(command, options), "--out", str(tmp_path / "x")])

    def test_the_registry_declares_these_inputs(self):
        declared = [
            (command, key, opt.kind)
            for command, spec in _COMMANDS.items()
            for key, opt in spec.opts.items()
            if opt.kind not in VALUE_KINDS
        ]
        assert declared == INPUTS

    @pytest.mark.parametrize("command,key,kind", INPUTS)
    def test_missing_path(self, command, key, kind, valid_options, tmp_path, capsys):
        missing = tmp_path / "missing" / "input"
        assert self._run(command, key, missing, valid_options, tmp_path) in (1, 2)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(missing) in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command,key,kind", [row for row in INPUTS if row[2] in RECORD_KINDS]
    )
    def test_no_records(self, command, key, kind, valid_options, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        assert self._run(command, key, empty, valid_options, tmp_path) == 1
        assert _single_error_line(capsys) == f"error: {empty}: no {RECORD_KINDS[kind]} records\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,key,kind", INPUTS)
    def test_one_corrupt_record(self, command, key, kind, valid_options, tmp_path, capsys):
        value, bad_file = _corrupt_input(kind, tmp_path)
        assert self._run(command, key, value, valid_options, tmp_path) == 1
        assert f"error: {bad_file}: " in _single_error_line(capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train-gec", "ablate"])
    def test_training_pair_without_target(self, command, valid_options, tmp_path, capsys):
        train = tmp_path / "t.m2"  # the second pair has no annotator, so no target
        train.write_text("S a b c\nA 0 1|||OTHER|||x|||REQUIRED|||-NONE-|||0\n\nS d e\n", encoding="utf-8")
        assert self._run(command, "train", train, valid_options, tmp_path) == 1
        assert _single_error_line(capsys) == "error: training pair without a target sentence\n"
        assert not (tmp_path / "x").exists()

    def test_missing_lexicon_directory(self, valid_options, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert self._run("evaluate", "lexicons", missing, valid_options, tmp_path) == 1
        assert _single_error_line(capsys) == f"error: {missing}: not a lexicon directory\n"
        assert not (tmp_path / "x").exists()

    def test_empty_gold_and_hypotheses(self, tmp_path, capsys):
        hyp, gold = tmp_path / "hyp.txt", tmp_path / "gold.m2"
        hyp.write_bytes(b"")
        gold.write_bytes(b"")
        code = main(["evaluate", "--hyp", str(hyp), "--gold", str(gold), "--out", str(tmp_path / "x")])
        assert code == 1
        assert _single_error_line(capsys) == f"error: {gold}: no M2 records\n"
        assert not (tmp_path / "x").exists()

    def test_decode_empty_in_empty_out(self, gec_dir, judge_dir, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        out = tmp_path / "out"
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"), "--input", str(empty),
             "--judge", str(judge_dir / "judge.json"), "--beam", "2", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        assert (out / "corrected.txt").read_bytes() == b""

    def test_extract_edits_empty_in_empty_out(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        out = tmp_path / "out"
        code = main(["extract-edits", "--source", str(empty), "--target", str(empty), "--out", str(out)])
        assert code == 0
        assert (out / "edits.m2").read_bytes() == b""

    def test_runners_read_no_file(self):
        """Only the loader reads: no runner calls read_text, a parse_* function or a .load.

        A runner gets its parsed inputs from the load() it is handed.
        """
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        runners = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_run_")]
        assert len(runners) == len(_COMMANDS)
        for runner in runners:
            for node in ast.walk(runner):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    assert name != "read_text" and not name.startswith("parse_"), (runner.name, name)
                    assert not (isinstance(func, ast.Attribute) and name == "load"), runner.name


class TestSynthGen:
    def test_outputs_exist(self, bench_dir):
        for name in (
            "gec_train.m2",
            "gec_dev.m2",
            "gec_test.m2",
            "cola_train.tsv",
            "cola_dev.tsv",
            "cola_test.tsv",
            "manifest.json",
            "grammar.json",
            "injection.json",
            "synth-gen.config.json",
            "run.log",
        ):
            assert (bench_dir / name).exists(), name
        assert (bench_dir / "lexicons").is_dir()

    def test_sizes_honored(self, bench_dir):
        pairs = parse_m2((bench_dir / "gec_train.m2").read_text(encoding="utf-8"))
        assert len(pairs) == 60

    def test_rerun_is_bytewise_identical(self, bench_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth-gen", *SMALL_BENCH, "--out", str(again)]) == 0
        for path in sorted(bench_dir.rglob("*")):
            if path.is_dir() or path.name == "run.log":
                continue
            twin = again / path.relative_to(bench_dir)
            if path.name == "synth-gen.config.json":
                ours = json.loads(path.read_text(encoding="utf-8"))
                theirs = json.loads(twin.read_text(encoding="utf-8"))
                ours.pop("out"), theirs.pop("out")
                assert ours == theirs
            else:
                assert path.read_bytes() == twin.read_bytes(), path.name


class TestExtractEdits:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("the dog run .\nshe go home\n", encoding="utf-8")
        tgt.write_text("the dog runs .\nshe goes home .\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["extract-edits", "--source", str(src), "--target", str(tgt), "--out", str(out)]
        )
        assert code == 0
        pairs = parse_m2((out / "edits.m2").read_text(encoding="utf-8"))
        assert [p.target.text for p in pairs] == ["the dog runs .", "she goes home ."]
        for pair in pairs:
            assert apply_edits(pair.source, pair.canonical_edits).tokens == pair.target.tokens

    @pytest.mark.parametrize("category", ["noop", "A|||B", "a|b"])
    def test_lexicon_category_m2_cannot_carry(self, category, tmp_path, capsys):
        """Such a category would be written as an edit type that build-cola and evaluate refuse."""
        lexicons = tmp_path / "lex"
        lexicons.mkdir()
        (lexicons / "morphology.tsv").write_text(f"{category}\tis\tare\n", encoding="utf-8")
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_text("he is here\n", encoding="utf-8")
        tgt.write_text("he are here\n", encoding="utf-8")
        code = main(
            ["extract-edits", "--source", str(src), "--target", str(tgt),
             "--lexicons", str(lexicons), "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert "morphology.tsv: line 1: bad inflection line" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_blank_source_line_reads_back(self, tmp_path):
        """A blank line is the empty sentence, and build-cola reads the M2 written for it."""
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("a b\n\n", encoding="utf-8")
        tgt.write_text("a b\nc\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["extract-edits", "--source", str(src), "--target", str(tgt), "--out", str(out)]
        )
        assert code == 0
        pairs = parse_m2((out / "edits.m2").read_text(encoding="utf-8"))
        assert [p.source.text for p in pairs] == ["a b", ""]
        assert [p.target.text for p in pairs] == ["a b", "c"]
        assert main(["build-cola", "--m2", str(out / "edits.m2"), "--out", str(tmp_path / "c")]) == 0

    def test_only_newline_ends_a_sentence(self, tmp_path):
        """Form feed, NEL and U+2028 are whitespace inside a line, as str.split has them."""
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("the dog run .\x0cshe go home\nok\x85.\u2028fine", encoding="utf-8")
        tgt.write_text("the dog runs . she goes home .\nok . fine\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["extract-edits", "--source", str(src), "--target", str(tgt), "--out", str(out)]
        )
        assert code == 0
        pairs = parse_m2((out / "edits.m2").read_text(encoding="utf-8"))
        assert [p.source.text for p in pairs] == ["the dog run . she go home", "ok . fine"]
        assert [p.target.text for p in pairs] == ["the dog runs . she goes home .", "ok . fine"]

    def test_length_mismatch(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("a b\nc d\n", encoding="utf-8")
        tgt.write_text("a b\n", encoding="utf-8")
        code = main(
            ["extract-edits", "--source", str(src), "--target", str(tgt),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "src.txt" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["extract-edits", "--source", str(tmp_path / "no.txt"),
             "--target", str(tmp_path / "no2.txt"), "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestBuildCola:
    def test_stats_depend_on_bytes_not_paths(self, bench_dir, tmp_path):
        data = (bench_dir / "gec_train.m2").read_bytes()
        stats = []
        for i, folder in enumerate(("a", "b/c")):
            path = tmp_path / folder / "gec_train.m2"
            path.parent.mkdir(parents=True)
            path.write_bytes(data)
            out = tmp_path / f"cola{i}"
            assert main(["build-cola", "--m2", str(path), "--out", str(out)]) == 0
            stats.append((out / "cola_stats.json").read_bytes())
        assert stats[0] == stats[1]
        assert list(json.loads(stats[0])["meta"]["parts"]) == ["0"]

    def test_splits_written(self, bench_dir, tmp_path):
        out = tmp_path / "cola"
        code = main(
            ["build-cola", "--m2", str(bench_dir / "gec_train.m2"), "--out", str(out),
             "--seed", "4"]
        )
        assert code == 0
        stats = json.loads((out / "cola_stats.json").read_text(encoding="utf-8"))
        assert stats["meta"]["seed"] == 4
        lines = (out / "cola_train.tsv").read_text(encoding="utf-8").splitlines()
        labels = {line.split("\t")[0] for line in lines}
        assert labels == {"0", "1"}
        assert not (out / "cola_test.tsv").exists()

    def test_dev_frac_alone_sets_the_dev_split(self, bench_dir, tmp_path):
        out = tmp_path / "cola"
        code = main(
            ["build-cola", "--m2", str(bench_dir / "gec_train.m2"), "--out", str(out),
             "--dev-frac", "0.2"]
        )
        assert code == 0
        sizes = {
            name: len((out / f"cola_{name}.tsv").read_text(encoding="utf-8").splitlines())
            for name in ("train", "dev")
        }
        assert sizes["dev"] == round(0.2 * (sizes["train"] + sizes["dev"]))
        assert sizes["train"] > sizes["dev"] > 0


class TestJudgeCommands:
    def test_judge_files(self, judge_dir):
        metrics = json.loads((judge_dir / "judge_metrics.json").read_text(encoding="utf-8"))
        assert set(metrics) == {"accuracy", "mcc", "tp", "fp", "fn", "tn", "total"}
        assert (judge_dir / "judge.json").exists()

    def test_train_judge_rejects_batch_size_zero(self, bench_dir, tmp_path, capsys):
        code = main(
            ["train-judge", "--train", str(bench_dir / "cola_train.tsv"),
             "--dev", str(bench_dir / "cola_dev.tsv"), "--batch-size", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "batch_size must be >= 1" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_one_class_training_tsv_writes_nothing(self, bench_dir, tmp_path, capsys):
        one_class = tmp_path / "one_class.tsv"
        one_class.write_text("1\ta b\n1\tc d\n", encoding="utf-8")
        code = main(
            ["train-judge", "--train", str(one_class), "--dev", str(bench_dir / "cola_dev.tsv"),
             "--dim", "64", "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys) == "error: training labels [1] cover a single class\n"
        assert not (tmp_path / "o").exists()

    def test_dev_split_is_scored_once(self, bench_dir, tmp_path, monkeypatch):
        """judge.json's dev_accuracy and judge_metrics.* come from one evaluate_judge call."""
        import geckit.judge

        calls = []
        evaluate = geckit.judge.evaluate_judge

        def counted(model, instances):
            calls.append(len(instances))
            return evaluate(model, instances)

        monkeypatch.setattr(geckit.judge, "evaluate_judge", counted)
        out = tmp_path / "j"
        code = main(
            ["train-judge", "--train", str(bench_dir / "cola_train.tsv"),
             "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "4096", "--epochs", "2",
             "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        dev_lines = (bench_dir / "cola_dev.tsv").read_text(encoding="utf-8").splitlines()
        assert calls == [len(dev_lines)]
        metrics = json.loads((out / "judge_metrics.json").read_text(encoding="utf-8"))
        saved = json.loads((out / "judge.json").read_text(encoding="utf-8"))
        assert metrics["accuracy"] == round(saved["dev_accuracy"], 4)

    def test_judge_eval(self, bench_dir, judge_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["judge-eval", "--model", str(judge_dir / "judge.json"),
             "--data", str(bench_dir / "cola_test.tsv"), "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "judge_eval.json").read_text(encoding="utf-8"))
        assert 0.0 <= data["accuracy"] <= 1.0
        assert (out / "judge_eval.txt").read_text(encoding="utf-8").startswith("instances")


class TestGecCommands:
    def test_train_outputs(self, gec_dir):
        assert (gec_dir / "gec_model" / "meta.json").exists()
        assert (gec_dir / "gec_model" / "params.npy").exists()
        log_lines = (gec_dir / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 2
        record = json.loads(log_lines[0])
        assert record["epoch"] == 1

    def test_dynamic_loss_requires_judge(self, bench_dir, tmp_path, capsys):
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_train.m2"), "--loss", "dynamic",
             "--epochs", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "judge" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("loss", [[], ["--loss", "plain_ce"]], ids=["default", "plain_ce"])
    def test_judge_without_dynamic_loss_is_refused(self, bench_dir, judge_dir, tmp_path, capsys, loss):
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_train.m2"),
             "--judge", str(judge_dir / "judge.json"), *loss, "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys) == (
            "error: train-gec: the dynamic loss needs option 'judge', and no other loss reads it\n"
        )
        assert not (tmp_path / "o").exists()

    def test_train_gec_rejects_batch_size_zero(self, bench_dir, tmp_path, capsys):
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_train.m2"), "--batch-size", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "batch_size must be >= 1" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_decode_output_counts(self, decoded_dir):
        lines = (decoded_dir / "corrected.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 20

    def test_decode_with_rerank(self, bench_dir, gec_dir, judge_dir, decoded_dir, tmp_path):
        out = tmp_path / "rr"
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"),
             "--input", str(decoded_dir / "sources.txt"),
             "--judge", str(judge_dir / "judge.json"), "--beam", "2", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "corrected.txt").read_text(encoding="utf-8").splitlines()) == 20

    def test_decode_rejects_beam_zero(self, gec_dir, decoded_dir, tmp_path, capsys):
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"),
             "--input", str(decoded_dir / "sources.txt"), "--beam", "0",
             "--out", str(tmp_path / "b0")]
        )
        assert code == 1
        assert "beam_size must be >= 1" in _single_error_line(capsys)
        assert not (tmp_path / "b0").exists()

    def test_decode_rejects_beam_wider_than_vocabulary_at_once(
        self, gec_dir, decoded_dir, tmp_path
    ):
        """The beam is checked against the model's vocabulary, which is read before --out exists."""
        out = tmp_path / "wide"
        argv = [
            "decode", "--model", str(gec_dir / "gec_model"),
            "--input", str(decoded_dir / "sources.txt"), "--beam", str(10**20), "--out", str(out),
        ]  # fmt: skip
        env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "geckit", *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "exceeds the vocabulary" in lines[0]
        assert not out.exists()

    def test_decode_rejects_negative_rerank_lam(
        self, gec_dir, judge_dir, decoded_dir, tmp_path, capsys
    ):
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"),
             "--input", str(decoded_dir / "sources.txt"), "--judge", str(judge_dir / "judge.json"),
             "--rerank-lam", "-0.5", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "rerank_lam must be >= 0" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lam", ["0", "0.7", "-0.5"])
    def test_rerank_lam_without_judge_is_refused(self, gec_dir, decoded_dir, tmp_path, capsys, lam):
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"),
             "--input", str(decoded_dir / "sources.txt"), "--rerank-lam", lam,
             "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys) == (
            "error: decode: option 'rerank_lam' weighs the judge's score, so it needs 'judge'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_default_rerank_lam_without_judge_is_accepted(self, gec_dir, decoded_dir, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"), "--input", str(decoded_dir / "sources.txt"),
             "--beam", "1", "--rerank-lam", "0.5", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        assert (out / "corrected.txt").read_bytes() == (decoded_dir / "corrected.txt").read_bytes()


class TestUnusableJudge:
    """A judge whose dev accuracy cannot weight the dynamic loss is refused before --out exists."""

    @pytest.mark.parametrize("accuracy", [None, 0.0, 5.0], ids=["null", "zero", "five"])
    @pytest.mark.parametrize("command", ["train-gec", "ablate"])
    def test_one_error_line_and_no_out(
        self, command, accuracy, bench_dir, judge_dir, tmp_path, capsys
    ):
        payload = json.loads((judge_dir / "judge.json").read_text(encoding="utf-8"))
        payload["dev_accuracy"] = accuracy
        judge = tmp_path / "judge.json"
        judge.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command, "--train", str(bench_dir / "gec_train.m2"), "--judge", str(judge),
                "--epochs", "1", "--out", str(tmp_path / "o")]  # fmt: skip
        if command == "train-gec":
            argv += ["--loss", "dynamic"]
        else:
            argv += ["--test", str(bench_dir / "gec_test.m2"), "--seeds", "0"]
        assert main(argv) == 1
        assert _single_error_line(capsys) == f"error: judge dev accuracy {accuracy!r} is unusable\n"
        assert not (tmp_path / "o").exists()


class TestEvaluateCommands:
    def test_evaluate_identity_is_perfect(self, bench_dir, tmp_path):
        pairs = parse_m2((bench_dir / "gec_test.m2").read_text(encoding="utf-8"))
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(p.target.text + "\n" for p in pairs), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--hyp", str(hyp), "--gold", str(bench_dir / "gec_test.m2"),
             "--lexicons", str(bench_dir / "lexicons"), "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "evaluate.json").read_text(encoding="utf-8"))
        assert (data["precision"], data["recall"], data["f0.5"]) == (100.0, 100.0, 100.0)

    def test_evaluate_scores_real_decode(self, bench_dir, decoded_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--hyp", str(decoded_dir / "corrected.txt"),
             "--gold", str(bench_dir / "gec_test.m2"), "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "evaluate.json").read_text(encoding="utf-8"))
        assert 0.0 <= data["f0.5"] <= 100.0

    def test_error_analysis_sections(self, bench_dir, decoded_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["error-analysis", "--hyp", str(decoded_dir / "corrected.txt"),
             "--gold", str(bench_dir / "gec_test.m2"),
             "--lexicons", str(bench_dir / "lexicons"),
             "--types", "PUNCT,SPELL", "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "error_analysis.json").read_text(encoding="utf-8"))
        assert set(data) == {"unfiltered", "no_PUNCT", "no_SPELL", "no_PUNCT_SPELL"}
        text = (out / "error_analysis.txt").read_text(encoding="utf-8")
        assert len(text.splitlines()) == 5

    def test_error_analysis_excluding_every_gold_edit_writes_nothing(self, tmp_path, capsys):
        gold = tmp_path / "gold.m2"
        pair = AnnotatedPair.from_edits(Sentence(("the", "dog", "runs")), [Edit(3, 3, (".",), PUNCT)])
        gold.write_text(emit_m2([pair]), encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the dog runs .\n", encoding="utf-8")
        code = main(
            ["error-analysis", "--hyp", str(hyp), "--gold", str(gold), "--types", "PUNCT",
             "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys) == "error: excluding ['PUNCT'] leaves no gold edits\n"
        assert not (tmp_path / "o").exists()

    def test_error_analysis_unknown_type(self, bench_dir, decoded_dir, tmp_path):
        code = main(
            ["error-analysis", "--hyp", str(decoded_dir / "corrected.txt"),
             "--gold", str(bench_dir / "gec_test.m2"),
             "--types", "PUNCT,BOGUS", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert not (tmp_path / "o").exists()


class TestAblate:
    def test_grid_shape(self, bench_dir, judge_dir, tmp_path):
        out = tmp_path / "ablate"
        code = main(
            ["ablate", "--train", str(bench_dir / "gec_train.m2"),
             "--test", str(bench_dir / "gec_test.m2"),
             "--judge", str(judge_dir / "judge.json"),
             "--seeds", "0", "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
             "--beam", "2", "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        assert set(data["variants"]) == {
            "plain_ce", "dynamic", "plain_ce+rerank", "dynamic+rerank",
        }
        assert data["seeds"] == [0]
        table = (out / "ablation.txt").read_text(encoding="utf-8").splitlines()
        assert len(table) == 5

    def test_judge_required(self, bench_dir, tmp_path, capsys):
        code = main(
            ["ablate", "--train", str(bench_dir / "gec_train.m2"),
             "--test", str(bench_dir / "gec_test.m2"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "judge" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dead_group_is_one_error_line(self, bench_dir, judge_dir, tmp_path, capsys, monkeypatch):
        def dying_train_gec(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(geckit.experiment, "train_gec", dying_train_gec)
        out = tmp_path / "ablate"
        code = main(
            ["ablate", "--train", str(bench_dir / "gec_train.m2"),
             "--test", str(bench_dir / "gec_test.m2"), "--judge", str(judge_dir / "judge.json"),
             "--seeds", "3", "--out", str(out)]
        )  # fmt: skip
        assert code == 1
        error = _single_error_line(capsys)
        assert error.startswith("error: ablation group (seed 3, loss ")
        assert error.endswith(" ended by signal SIGKILL without its scores\n")
        log = (out / "run.log").read_text(encoding="utf-8").splitlines()
        assert log[-1].endswith(f" failed: {error[len('error: '):].rstrip()}")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--beam", "0", "beam_size must be >= 1"),
            ("--rerank-lam", "-1", "rerank_lam must be >= 0"),
            ("--epochs", "0", "epochs must be >= 1"),
            ("--hidden-dim", "0", "hidden_dim must be positive"),
            ("--hidden-dim", str(10**20), "too large to allocate"),
            # A model is built before --out is made: its (H, H) attn_Wk is 80 PB at H = 10**8.
            ("--hidden-dim", "100000000", "error: out of memory: "),
            ("--beam", str(10**20), "exceeds the vocabulary"),
        ],
    )
    def test_bad_option_writes_nothing(
        self, bench_dir, judge_dir, tmp_path, capsys, flag, value, message
    ):
        code = main(
            ["ablate", "--train", str(bench_dir / "gec_train.m2"),
             "--test", str(bench_dir / "gec_test.m2"), "--judge", str(judge_dir / "judge.json"),
             flag, value, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert message in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()


SEEDED = ("synth-gen", "build-cola", "train-judge", "train-gec")
UNSEEDED = ("extract-edits", "judge-eval", "decode", "evaluate", "error-analysis", "ablate")


def _outputs(out: Path) -> dict:
    """Every file a run wrote except run.log and the config snapshot, by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "run.log" and not path.name.endswith(".config.json")
    }


class TestSeedRule:
    """A seed is accepted only where it changes an output."""

    def test_registry(self):
        assert set(SEEDED) | set(UNSEEDED) == set(_COMMANDS)
        assert {name for name, spec in _COMMANDS.items() if "seed" in spec.opts} == set(SEEDED)
        assert "seed" not in _GLOBAL_OPTS

    @pytest.mark.parametrize("command", SEEDED)
    def test_two_seeds_differ_in_some_output_byte(self, command, bench_dir, tmp_path):
        argv = {
            "synth-gen": ["--gec-train", "25", "--gec-dev", "6", "--gec-test", "8", "--cola-pairs", "80"],
            "build-cola": ["--m2", str(bench_dir / "gec_train.m2")],
            "train-judge": ["--train", str(bench_dir / "cola_train.tsv"),
                            "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "4096", "--epochs", "2"],
            "train-gec": ["--train", str(bench_dir / "gec_dev.m2"), "--epochs", "1",
                          "--embed-dim", "8", "--hidden-dim", "8"],
        }[command]  # fmt: skip
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            assert main([command, *argv, "--seed", seed, "--out", str(out)]) == 0
            outputs.append(_outputs(out))
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", UNSEEDED)
    def test_seed_refused(self, command, source, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path / "x")]
        if source == "flag":
            argv += ["--seed", "3"]
            message = "error: unrecognized arguments: --seed 3\n"
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": 3}), encoding="utf-8")
            argv += ["--config", str(config)]
            message = f"error: {config}: unknown config key 'seed' for subcommand {command!r}\n"
        assert main(argv) == 1
        assert _single_error_line(capsys) == message
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", UNSEEDED)
    def test_seed_environment_ignored(
        self, command, bench_dir, judge_dir, gec_dir, decoded_dir, tmp_path, monkeypatch
    ):
        """GECKIT_SEED=-1 would be refused by a command that read it."""
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_text("the dog run .\n", encoding="utf-8")
        tgt.write_text("the dog runs .\n", encoding="utf-8")
        hyp = ["--hyp", str(decoded_dir / "corrected.txt"), "--gold", str(bench_dir / "gec_test.m2")]
        argv = {
            "extract-edits": ["--source", str(src), "--target", str(tgt)],
            "judge-eval": ["--model", str(judge_dir / "judge.json"), "--data", str(bench_dir / "cola_dev.tsv")],
            "decode": ["--model", str(gec_dir / "gec_model"), "--input", str(decoded_dir / "sources.txt")],
            "evaluate": hyp,
            "error-analysis": hyp,
            "ablate": ["--train", str(bench_dir / "gec_dev.m2"), "--test", str(bench_dir / "gec_test.m2"),
                       "--judge", str(judge_dir / "judge.json"), "--seeds", "0", "--epochs", "1",
                       "--embed-dim", "8", "--hidden-dim", "8", "--beam", "2"],
        }[command]  # fmt: skip
        out = tmp_path / "out"
        monkeypatch.setenv("GECKIT_SEED", "-1")
        assert main([command, *argv, "--out", str(out)]) == 0
        snapshot = json.loads((out / f"{command}.config.json").read_text(encoding="utf-8"))
        assert "seed" not in snapshot
        assert _outputs(out)


# Each corruption maps a saved judge's JSON payload to the value written in its place.
JUDGE_CORRUPTIONS = {
    "missing dim": lambda d: {k: v for k, v in d.items() if k != "dim"},
    "missing bias0": lambda d: {k: v for k, v in d.items() if k != "bias0"},
    "missing weight_indices": lambda d: {k: v for k, v in d.items() if k != "weight_indices"},
    "string dim": lambda d: {**d, "dim": str(d["dim"])},
    "index at dim": lambda d: {**d, "weight_indices": d["weight_indices"][:-1] + [d["dim"]]},
    "negative index": lambda d: {**d, "weight_indices": [-1] + d["weight_indices"][1:]},
    "unsorted indices": lambda d: {**d, "weight_indices": d["weight_indices"][::-1]},
    # Sorted, but the first index is written twice: a column may hold one weight only.
    "repeated indices": lambda d: {
        **d, "weight_indices": d["weight_indices"][:1] + d["weight_indices"][:-1]
    },
    "short values": lambda d: {**d, "weight_values": d["weight_values"][:-1]},
    "text values": lambda d: {**d, "weight_values": ["x"] * len(d["weight_values"])},
    "n-gram range": lambda d: {**d, "ngram_max": 3},
    # Its bytes exceed numpy's index type: numpy itself would raise ValueError.
    "dim beyond numpy": lambda d: {**d, "dim": 2**62},
    "not an object": lambda d: [d],
}

META_CORRUPTIONS = {
    "unknown config key": lambda m: m["config"].update(dropout=0.1),
    "missing config key": lambda m: m["config"].pop("hidden_dim"),
    "string config value": lambda m: m["config"].update(embed_dim="8"),
    "negative seed": lambda m: m["config"].update(seed=-1),
    "missing vocab": lambda m: m.pop("vocab"),
    "config not an object": lambda m: m.update(config=[8, 12]),
    # 10^14 weights per hidden matrix: checked against params.npy before any allocation.
    "huge hidden_dim": lambda m: m["config"].update(hidden_dim=10**7),
    "hidden_dim beyond numpy": lambda m: m["config"].update(hidden_dim=10**20),
}

PARAMS_DAMAGE = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "empty": lambda raw: b"",
}

PARAMS_CORRUPTIONS = {
    "too few values": lambda flat: flat[:-1],
    "nan value": lambda flat: np.where(np.arange(flat.size) == 3, np.nan, flat),
    "inf value": lambda flat: np.where(np.arange(flat.size) == 3, -np.inf, flat),
    "float32": lambda flat: flat.astype(np.float32),
    "big-endian float64": lambda flat: flat.astype(">f8"),
}


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


class TestCorruptModelFiles:
    """Hand-edited or damaged model files fail with exit 1 and one line."""

    def _decode(self, model_dir, sources, out, judge=None):
        argv = ["decode", "--model", str(model_dir), "--input", str(sources), "--out", str(out)]
        return main(argv + (["--judge", str(judge)] if judge else []))

    @pytest.mark.parametrize("command", ["decode", "ablate"])
    @pytest.mark.parametrize("corruption", sorted(JUDGE_CORRUPTIONS))
    def test_bad_judge(
        self, command, corruption, bench_dir, judge_dir, gec_dir, decoded_dir, tmp_path, capsys
    ):
        payload = json.loads((judge_dir / "judge.json").read_text(encoding="utf-8"))
        payload = JUDGE_CORRUPTIONS[corruption](payload)
        bad = tmp_path / "judge.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        if command == "decode":
            code = self._decode(
                gec_dir / "gec_model", decoded_dir / "sources.txt", tmp_path / "o", judge=bad
            )
        else:
            code = main(
                ["ablate", "--train", str(bench_dir / "gec_train.m2"),
                 "--test", str(bench_dir / "gec_test.m2"), "--judge", str(bad),
                 "--out", str(tmp_path / "o")]
            )  # fmt: skip
        assert code == 1
        assert str(bad) in _single_error_line(capsys)

    @pytest.mark.parametrize("corruption", sorted(META_CORRUPTIONS))
    def test_bad_meta(self, corruption, gec_dir, decoded_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(gec_dir / "gec_model", model_dir)
        meta = json.loads((model_dir / "meta.json").read_text(encoding="utf-8"))
        META_CORRUPTIONS[corruption](meta)
        (model_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        assert self._decode(model_dir, decoded_dir / "sources.txt", tmp_path / "o") == 1
        assert "meta.json" in _single_error_line(capsys)

    def test_version_1_model_is_refused(self, gec_dir, decoded_dir, tmp_path, capsys):
        """A model saved before attn_dim was deleted: its meta.json is version 1."""
        model_dir = tmp_path / "model"
        shutil.copytree(gec_dir / "gec_model", model_dir)
        meta = json.loads((model_dir / "meta.json").read_text(encoding="utf-8"))
        meta["version"] = 1
        meta["config"]["attn_dim"] = None
        (model_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        assert self._decode(model_dir, decoded_dir / "sources.txt", tmp_path / "o") == 1
        assert _single_error_line(capsys) == (
            f"error: {model_dir / 'meta.json'}: unsupported model version 1\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", [*PARAMS_DAMAGE, *PARAMS_CORRUPTIONS])
    def test_bad_params(self, damage, gec_dir, decoded_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(gec_dir / "gec_model", model_dir)
        params = model_dir / "params.npy"
        if damage in PARAMS_CORRUPTIONS:
            np.save(params, PARAMS_CORRUPTIONS[damage](np.load(params)))
        else:
            params.write_bytes(PARAMS_DAMAGE[damage](params.read_bytes()))
        assert self._decode(model_dir, decoded_dir / "sources.txt", tmp_path / "o") == 1
        assert "params.npy" in _single_error_line(capsys)


class TestOutOfMemory:
    """Sizes no machine can allocate (petabytes) fail with exit 1 and one line.

    Each allocation is far beyond any address space, so it is refused at once.
    """

    def test_judge_too_large_to_load(self, bench_dir, judge_dir, gec_dir, decoded_dir, tmp_path, capsys):
        payload = json.loads((judge_dir / "judge.json").read_text(encoding="utf-8"))
        payload["dim"] = 10**15
        huge = tmp_path / "judge.json"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        code = main(
            ["judge-eval", "--model", str(huge), "--data", str(bench_dir / "cola_dev.tsv"),
             "--out", str(tmp_path / "a")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys).startswith("error: out of memory: ")
        code = main(
            ["decode", "--model", str(gec_dir / "gec_model"), "--input", str(decoded_dir / "sources.txt"),
             "--judge", str(huge), "--out", str(tmp_path / "b")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys).startswith("error: out of memory: ")

    def test_judge_too_large_to_train_leaves_no_out(self, bench_dir, tmp_path, capsys):
        # The judge is trained before --out is made. Its first dim-sized array,
        # the mask of touched columns, is 10**15 bytes.
        code = main(
            ["train-judge", "--train", str(bench_dir / "cola_dev.tsv"),
             "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "1000000000000000",
             "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys).startswith("error: out of memory: ")
        assert not (tmp_path / "o").exists()

    def test_gec_model_too_large_leaves_no_out(self, bench_dir, tmp_path, capsys):
        # The model is built before --out is made. attn_Wk, the first parameter
        # it allocates, is (H, H): 80 PB at H = 10**8.
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_dev.m2"), "--epochs", "1",
             "--hidden-dim", "100000000", "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert _single_error_line(capsys).startswith("error: out of memory: ")
        assert not (tmp_path / "o").exists()

    def test_gec_size_beyond_numpy(self, bench_dir, tmp_path, capsys):
        # numpy raises ValueError, not MemoryError, for an array this large.
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_dev.m2"), "--hidden-dim", str(10**20),
             "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert "too large to allocate" in _single_error_line(capsys)
        assert not (tmp_path / "o").exists()


class TestWhitespaceInTokens:
    """A token holding whitespace is refused with its line number."""

    @pytest.mark.parametrize("char", ["\t", "\xa0", "\u3000"])
    def test_m2_token(self, char, bench_dir, tmp_path, capsys):
        lines = (bench_dir / "gec_dev.m2").read_text(encoding="utf-8").split("\n")
        lines[0] = lines[0] + char + "x"
        bad = tmp_path / "bad.m2"
        bad.write_text("\n".join(lines), encoding="utf-8")
        for argv in (["build-cola", "--m2", str(bad)], ["train-gec", "--train", str(bad)]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == 1
            error = _single_error_line(capsys)
            assert f"{bad}: line 1: token contains whitespace" in error

    def test_tsv_token(self, bench_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\ta b\n0\tg\xa0h\n", encoding="utf-8")
        code = main(
            ["train-judge", "--train", str(bad), "--dev", str(bench_dir / "cola_dev.tsv"),
             "--out", str(tmp_path / "o")]
        )  # fmt: skip
        assert code == 1
        assert f"{bad}: line 2: token contains whitespace" in _single_error_line(capsys)


# --- property test: corrupt inputs never escape as a traceback ------------------

_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# Every character UTF-8 encodes: the alphabet of st.text's default, without the
# codec table that hypothesis would build afresh in each session's storage.
_CHARS = st.characters(exclude_categories=["Cs"])
# Values that no integer field and no float field of the model files accepts.
_NOT_A_NUMBER = st.one_of(
    st.text(_CHARS, max_size=4),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    _NON_FINITE,
)
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER, st.floats(allow_nan=False, allow_infinity=False))
_HUGE = st.integers(min_value=MAX_ARRAY_SIZE + 1)
_SPACES = "\t\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"


@st.composite
def _judge_corruption(draw):
    key = draw(st.sampled_from(["dim", "ngram_min", "ngram_max", "seed", "epochs", "bias0"]))
    values = {
        "dim": st.one_of(_NOT_AN_INT, st.integers(max_value=0), _HUGE),
        "bias0": _NOT_A_NUMBER,
    }
    return ("judge", key, draw(st.one_of(st.none(), values.get(key, _NOT_AN_INT))))


@st.composite
def _meta_corruption(draw):
    key = draw(st.sampled_from(["embed_dim", "hidden_dim", "attn_dim", "seed"]))
    huge = st.nothing() if key == "seed" else _HUGE  # any seed >= 0 is valid
    return ("meta", key, draw(st.one_of(_NOT_AN_INT, st.integers(max_value=-1), huge)))


_OTHER_DTYPE = st.sampled_from(["float16", "float32", "longdouble", "int64", "complex128", ">f8"])
_PARAMS_CORRUPTION = st.one_of(
    st.tuples(st.just("params"), st.integers(0, 100), _NON_FINITE),
    st.tuples(st.just("dtype"), _OTHER_DTYPE, st.none()),
)
_M2_CORRUPTION = st.tuples(st.just("m2"), st.integers(0, 10**6), st.sampled_from(_SPACES))
# A COLA TSV line with a label other than 0 or 1, or without exactly two fields.
_TSV_CORRUPTION = st.tuples(
    st.just("tsv"),
    st.integers(0, 10**6),
    st.one_of(
        st.tuples(st.just("label"), st.text(_CHARS, max_size=3).filter(lambda label: label not in ("0", "1"))),
        st.tuples(st.sampled_from(["extra field", "no tab", "empty sentence"]), st.none()),
    ),
)

_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(_CHARS, max_size=4))
_DICT = st.dictionaries(st.text(_CHARS, max_size=3), _SCALAR, max_size=2)


def _list_of(element):
    return st.lists(element, min_size=1, max_size=2)


_NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _list_of(_SCALAR), _DICT)
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), _list_of(_SCALAR), _DICT)
# JSON values of a type that the option kind refuses. Strings are drawn only
# for bool, since a string may spell a number. null goes only to keys that have
# a default or are required, where it is refused as well.
_WRONG_TYPE = {
    "int": _NOT_INT,
    "float": st.one_of(st.none(), st.booleans(), _NON_FINITE, _list_of(_SCALAR), _DICT),
    "str": st.one_of(st.booleans(), st.integers(), st.floats(), _list_of(_SCALAR), _DICT),
    "bool": st.one_of(st.none(), st.integers(), st.floats(), st.text(_CHARS, max_size=4), _list_of(_SCALAR), _DICT),
    "names": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.just([]), _list_of(_NOT_STR), _DICT),
    "seeds": st.one_of(st.none(), st.booleans(), st.floats(), st.just([]), _list_of(_NOT_INT), _DICT),
    "m2_list": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.just([]), _list_of(_NOT_STR), _DICT),
}  # fmt: skip
_CONFIG_COMMANDS = ("build-cola", "error-analysis", "ablate")


@st.composite
def _config_corruption(draw):
    """A --config file: one key of the wrong type or nested, or the object itself nested or replaced."""
    command = draw(st.sampled_from(_CONFIG_COMMANDS))
    how = draw(st.sampled_from(["type", "nested value", "wrapped", "under a key", "not an object"]))
    opts = _COMMANDS[command].opts
    key = draw(st.sampled_from(sorted(opts)))
    if how == "type":
        kind = opts[key].kind
        value = draw(_WRONG_TYPE[kind if kind in _WRONG_TYPE else "str"])
    elif how == "nested value":
        depth = draw(st.integers(1, 3))
        value = draw(_SCALAR)
        if draw(st.booleans()):
            for _ in range(depth + 1):  # one list level is a valid list option
                value = [value]
        else:
            for _ in range(depth):
                value = {key: value}
    elif how == "under a key":
        key = draw(st.sampled_from([command, "config", "options"]))
        value = None
    else:
        value = draw(st.one_of(_SCALAR, _list_of(_SCALAR))) if how == "not an object" else None
    return ("config", command, (how, key, value))


class TestCorruptInputsProperty:
    """Any of these corruptions exits 1 or 2 with exactly one error line, and writes no --out."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(
            _judge_corruption(), _meta_corruption(), _PARAMS_CORRUPTION, _M2_CORRUPTION,
            _TSV_CORRUPTION, _config_corruption(),
        )
    )  # fmt: skip
    # Each escaped once: a float seed was truncated, and a nested one raised TypeError.
    @example(("config", "ablate", ("type", "seeds", [1.5])))
    @example(("config", "ablate", ("nested value", "seeds", [[0]])))
    def test_corruption_gives_one_error_line(
        self, bench_dir, judge_dir, gec_dir, decoded_dir, corruption
    ):
        kind, where, value = corruption
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if kind == "tsv":
                lines = (bench_dir / "cola_dev.tsv").read_text(encoding="utf-8").split("\n")
                i = where % (len(lines) - 1)  # the text ends with a newline
                label, sentence = lines[i].split("\t")
                how, text = value
                lines[i] = {
                    "label": f"{text}\t{sentence}",
                    "extra field": f"{label}\t{sentence}\tx",
                    "no tab": f"{label} {sentence}",
                    "empty sentence": f"{label}\t",
                }[how]
                (tmp / "bad.tsv").write_text("\n".join(lines), encoding="utf-8")
                argv = ["judge-eval", "--model", str(judge_dir / "judge.json"), "--data", str(tmp / "bad.tsv")]
            elif kind == "config":
                how, key, wrong = value
                config = _valid_options(bench_dir, judge_dir, gec_dir, decoded_dir)[where]
                if how in ("type", "nested value"):
                    config[key] = wrong
                elif how == "wrapped":
                    config = [config]
                elif how == "under a key":
                    config = {key: config}
                else:
                    config = wrong
                (tmp / "run.json").write_text(json.dumps(config), encoding="utf-8")
                argv = [where, "--config", str(tmp / "run.json")]
            elif kind == "judge":
                payload = json.loads((judge_dir / "judge.json").read_text(encoding="utf-8"))
                payload[where] = value
                (tmp / "judge.json").write_text(json.dumps(payload), encoding="utf-8")
                argv = ["judge-eval", "--model", str(tmp / "judge.json"),
                        "--data", str(bench_dir / "cola_dev.tsv")]  # fmt: skip
            elif kind == "m2":
                lines = (bench_dir / "gec_dev.m2").read_text(encoding="utf-8").split("\n")
                s_lines = [i for i, line in enumerate(lines) if line.startswith("S ")]
                i = s_lines[where % len(s_lines)]
                at = 2 + where % (len(lines[i]) - 1)
                lines[i] = lines[i][:at] + value + lines[i][at:]
                (tmp / "bad.m2").write_text("\n".join(lines), encoding="utf-8")
                argv = ["build-cola", "--m2", str(tmp / "bad.m2")]
            else:
                model = tmp / "model"
                shutil.copytree(gec_dir / "gec_model", model)
                if kind == "meta":
                    meta = json.loads((model / "meta.json").read_text(encoding="utf-8"))
                    meta["config"][where] = value
                    (model / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
                else:
                    flat = np.load(model / "params.npy")
                    if kind == "params":
                        flat[where % flat.size] = value
                    else:
                        flat = flat.astype(where)
                    np.save(model / "params.npy", flat)
                argv = ["decode", "--model", str(model), "--input", str(decoded_dir / "sources.txt")]
            err = io.StringIO()
            with redirect_stderr(err):
                code = main([*argv, "--out", str(tmp / "o")])
            wrote = (tmp / "o").exists()
        lines = err.getvalue().splitlines()
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: ")), lines
        assert not wrote


# The files a truncation cuts. Each text input starts with a non-ASCII token,
# so that a cut can split a UTF-8 character.
_TRUNCATED = ("judge.json", "meta.json", "params.npy", "gold.m2", "cola.tsv", "config.json")
_NON_ASCII = "caf\u00e9"


def _still_valid(kind: str, cut: bytes, full: bytes) -> bool:
    """Whether a cut leaves a valid, shorter input (the text formats end each line with one)."""
    if kind.endswith(".json"):
        try:
            return json.loads(cut) == json.loads(full)
        except ValueError:
            return False
    if kind == "params.npy":
        return False
    return cut == b"" or (cut.endswith(b"\n") and not cut.endswith(b"\n\n"))


class TestTruncatedInputsProperty:
    """An input cut at any byte fails with one line, unless a valid shorter file is left."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(kind=st.sampled_from(_TRUNCATED), at=st.integers(min_value=0))
    @example(kind="gold.m2", at=6)  # inside the first "\u00e9"
    @example(kind="cola.tsv", at=6)
    def test_truncation(self, bench_dir, judge_dir, gec_dir, decoded_dir, kind, at):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            hyp = tmp / "hyp.txt"
            hyp.write_bytes(f"{_NON_ASCII}\n".encode() + (decoded_dir / "corrected.txt").read_bytes())
            model = tmp / "model"
            shutil.copytree(gec_dir / "gec_model", model)
            inputs = {
                "judge.json": (tmp / "judge.json", (judge_dir / "judge.json").read_bytes()),
                "meta.json": (model / "meta.json", (model / "meta.json").read_bytes()),
                "params.npy": (model / "params.npy", (model / "params.npy").read_bytes()),
                "gold.m2": (
                    tmp / "gold.m2",
                    f"S {_NON_ASCII}\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n".encode()
                    + (bench_dir / "gec_test.m2").read_bytes(),
                ),
                "cola.tsv": (
                    tmp / "cola.tsv",
                    f"1\t{_NON_ASCII}\n".encode() + (bench_dir / "cola_dev.tsv").read_bytes(),
                ),
                "config.json": (
                    tmp / "config.json",
                    (json.dumps({"gold": str(tmp / "gold.m2"), "hyp": str(hyp)}, indent=2) + "\n").encode(),
                ),
            }
            for path, data in inputs.values():
                path.write_bytes(data)
            path, full = inputs[kind]
            cut = full[: at % len(full)]
            path.write_bytes(cut)
            argv = {
                "judge.json": ["judge-eval", "--model", str(tmp / "judge.json"), "--data", str(tmp / "cola.tsv")],
                "meta.json": ["decode", "--model", str(model), "--input", str(decoded_dir / "sources.txt")],
                "gold.m2": ["evaluate", "--hyp", str(hyp), "--gold", str(tmp / "gold.m2")],
                "config.json": ["evaluate", "--config", str(tmp / "config.json")],
            }
            argv["params.npy"] = argv["meta.json"]
            argv["cola.tsv"] = argv["judge.json"]
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([*argv[kind], "--out", str(tmp / "o")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert _still_valid(kind, cut, full), (kind, len(cut), len(full))
        else:
            assert code in (1, 2)
            assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: ")), lines


class TestRunLog:
    def test_failures_are_logged(self, bench_dir, tmp_path, capsys):
        """A missing input leaves no --out; a failure after start() is logged."""
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--hyp", str(tmp_path / "missing.txt"),
             "--gold", str(tmp_path / "missing.m2"), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        # The judge trains, then cannot be written: its path is a directory.
        (out / "judge.json").mkdir(parents=True)
        code = main(
            ["train-judge", "--train", str(bench_dir / "cola_train.tsv"),
             "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "1024", "--epochs", "1",
             "--out", str(out)]
        )  # fmt: skip
        assert code == 2
        log = (out / "run.log").read_text(encoding="utf-8")
        assert "started" in log and "failed" in log
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("i/o error: ")
        assert log.splitlines()[-1].endswith(f" failed: {error[len('i/o error: '):]}")


def _wait_for(condition, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)


def _group_is_empty(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


class TestInterrupt:
    """Ctrl-C ends a run with one stderr line, a logged failure and exit 130."""

    def _interrupt(self, argv, out, ready, interrupt):
        """Run geckit, interrupt it once ready(pid) holds; it exits 130 with one line."""
        env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "geckit", *argv, "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )  # fmt: skip
        try:
            _wait_for(lambda: ready(proc.pid), "the run to get going")
            time.sleep(0.5)
            interrupt(proc.pid)
            _stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert stderr.splitlines() == ["interrupted"]
        _wait_for(lambda: _group_is_empty(proc.pid), "no process left", timeout=10)

    def _run_until_interrupted(self, argv, out, ready, interrupt):
        """Interrupted after start(): run.log ends with the one failure."""
        log = out / "run.log"

        def started(pid: int) -> bool:
            return log.exists() and "started" in log.read_text("utf-8") and ready(pid)

        self._interrupt(argv, out, started, interrupt)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[-1].endswith(" failed: interrupted")
        assert sum("failed" in line for line in lines) == 1

    def test_train_judge(self, bench_dir, tmp_path):
        """Interrupted while it trains, before --out is made: nothing is left behind."""
        argv = [
            "train-judge", "--train", str(bench_dir / "cola_train.tsv"),
            "--dev", str(bench_dir / "cola_dev.tsv"), "--dim", "4096", "--epochs", str(10**9),
        ]  # fmt: skip

        def numpy_loaded(pid: int) -> bool:
            # The runner imports numpy inside main(), where an interrupt is caught.
            return "_multiarray_umath" in Path(f"/proc/{pid}/maps").read_text()

        out = tmp_path / "judge"
        self._interrupt(argv, out, numpy_loaded, lambda pid: os.kill(pid, signal.SIGINT))
        assert not out.exists()

    def test_train_gec(self, bench_dir, tmp_path):
        argv = [
            "train-gec", "--train", str(bench_dir / "gec_train.m2"), "--epochs", str(10**9),
            "--embed-dim", "8", "--hidden-dim", "8",
        ]  # fmt: skip
        self._run_until_interrupted(
            argv, tmp_path / "gec", lambda pid: True, lambda pid: os.kill(pid, signal.SIGINT)
        )

    def test_ablate_and_its_workers(self, bench_dir, judge_dir, tmp_path):
        def has_workers(pid: int) -> bool:
            return bool(Path(f"/proc/{pid}/task/{pid}/children").read_text().split())

        argv = [
            "ablate", "--train", str(bench_dir / "gec_train.m2"),
            "--test", str(bench_dir / "gec_test.m2"), "--judge", str(judge_dir / "judge.json"),
            "--seeds", "0", "--epochs", str(10**6), "--embed-dim", "8", "--hidden-dim", "8",
            "--beam", "2",
        ]  # fmt: skip
        # Ctrl-C in a terminal signals the whole process group, workers included.
        self._run_until_interrupted(
            argv, tmp_path / "ablate", has_workers, lambda pid: os.killpg(pid, signal.SIGINT)
        )
