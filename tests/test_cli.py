"""End-to-end tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geckit
from geckit.cli import _COMMANDS, main
from geckit.textcore import apply_edits, parse_m2

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


def test_import_leaves_scipy_unloaded():
    """Only judge training needs scipy, so no other command pays for importing it."""
    code = "import sys, geckit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(geckit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        "train-judge": ["--train", "t.tsv", "--dev", "d.tsv"],
        "train-gec": ["--train", "t.m2"],
        "ablate": ["--train", "t.m2", "--test", "s.m2", "--judge", "j.json"],
    }

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
        argv = ["ablate", *self.NEGATIVE_SEED_ARGS["ablate"], "--out", str(tmp_path / "x")]
        if source == "flag":
            argv.append("--seeds=-1,2")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seeds": [-1, 2]}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: ablate: option 'seeds' must all be >= 0, got [-1, 2]\n"

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
        assert record["stage"] == "main"

    def test_dynamic_loss_requires_judge(self, bench_dir, tmp_path):
        code = main(
            ["train-gec", "--train", str(bench_dir / "gec_train.m2"), "--loss", "dynamic",
             "--epochs", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1

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

    def test_error_analysis_unknown_type(self, bench_dir, decoded_dir, tmp_path):
        code = main(
            ["error-analysis", "--hyp", str(decoded_dir / "corrected.txt"),
             "--gold", str(bench_dir / "gec_test.m2"),
             "--types", "PUNCT,BOGUS", "--out", str(tmp_path / "o")]
        )
        assert code == 1


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


JUDGE_CORRUPTIONS = {
    "missing dim": lambda d: d.pop("dim"),
    "missing bias0": lambda d: d.pop("bias0"),
    "missing weight_indices": lambda d: d.pop("weight_indices"),
    "string dim": lambda d: d.update(dim=str(d["dim"])),
    "index at dim": lambda d: d["weight_indices"].__setitem__(-1, d["dim"]),
    "negative index": lambda d: d["weight_indices"].__setitem__(0, -1),
    "unsorted indices": lambda d: d["weight_indices"].reverse(),
    "short values": lambda d: d["weight_values"].pop(),
    "text values": lambda d: d.update(weight_values=["x"] * len(d["weight_values"])),
    "n-gram range": lambda d: d.update(ngram_max=3),
}

META_CORRUPTIONS = {
    "unknown config key": lambda m: m["config"].update(dropout=0.1),
    "missing config key": lambda m: m["config"].pop("hidden_dim"),
    "string config value": lambda m: m["config"].update(embed_dim="8"),
    "negative seed": lambda m: m["config"].update(seed=-1),
    "missing vocab": lambda m: m.pop("vocab"),
    "config not an object": lambda m: m.update(config=[8, 12]),
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
        JUDGE_CORRUPTIONS[corruption](payload)
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

    @pytest.mark.parametrize("damage", ["truncated", "empty", "too few values"])
    def test_bad_params(self, damage, gec_dir, decoded_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(gec_dir / "gec_model", model_dir)
        params = model_dir / "params.npy"
        if damage == "too few values":
            np.save(params, np.load(params)[:-1])
        else:
            raw = params.read_bytes()
            params.write_bytes(raw[: len(raw) // 2] if damage == "truncated" else b"")
        assert self._decode(model_dir, decoded_dir / "sources.txt", tmp_path / "o") == 1
        assert "params.npy" in _single_error_line(capsys)


class TestRunLog:
    def test_failures_are_logged(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--hyp", str(tmp_path / "missing.txt"),
             "--gold", str(tmp_path / "missing.m2"), "--out", str(out)]
        )
        assert code == 2
        log = (out / "run.log").read_text(encoding="utf-8")
        assert "started" in log and "failed" in log
