"""The workloads: their set-up, their timed round and their checks.

A workload is a list of geckit CLI invocations (steps). Set-up makes the
inputs and models the timed part reads; a round is the timed part;
``final`` steps run once per run, after the rounds and untimed, to check
properties that need extra invocations. Every path in an argv is
absolute, so the same argv works for a child process and for an
in-process replay.

Sizes are chosen so that one run (three set-ups, at least three rounds,
the final checks) takes about 40 seconds on a 2-core machine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

PRESET = "mix_a"
ABLATE_VARIANTS = ["plain_ce", "dynamic", "plain_ce+rerank", "dynamic+rerank"]
SUBSET = 50  # test sources decoded by the equivalence checks of quickstart


@dataclass
class Step:
    """One CLI invocation. check() runs after the timing and returns problems."""

    label: str
    argv: list[str]
    check: Callable[[], list[str]] | None = None
    items: int = 0  # sentences or cells processed, for a rate
    prepare: Callable[[], None] | None = None  # benchmark-side input prep, untimed


@dataclass
class Workload:
    name: str
    setup: Callable[[int, Path], list[Step]]
    round: Callable[[int, Path, Path], list[Step]]
    final: Callable[[int, Path, list[Path]], list[Step]]
    artifacts: Callable[[Path], list[Path]]  # set-up outputs that must repeat bytewise
    outputs: Callable[[Path], list[Path]]  # round outputs that must repeat bytewise
    fingerprint: Callable[[Path, Path], dict]
    env: dict[str, str] = field(default_factory=dict)


def _synth(seed: int, out: Path, train: int, dev: int, test: int, cola: int) -> list[str]:
    return [
        "synth-gen", "--preset", PRESET, "--seed", str(seed), "--out", str(out),
        "--gec-train", str(train), "--gec-dev", str(dev), "--gec-test", str(test),
        "--cola-pairs", str(cola),
    ]  # fmt: skip


def _judge(seed: int, data: Path, out: Path) -> list[str]:
    return [
        "train-judge", "--train", str(data / "cola_train.tsv"), "--dev", str(data / "cola_dev.tsv"),
        "--dim", "65536", "--seed", str(seed), "--out", str(out),
    ]  # fmt: skip


def _decode(model: Path, inputs: Path, out: Path, *extra: str) -> list[str]:
    return ["decode", "--model", str(model / "gec_model"), "--input", str(inputs), "--out", str(out), *extra]


def _evaluate(hyp: Path, data: Path, out: Path) -> list[str]:
    return [
        "evaluate", "--hyp", str(hyp), "--gold", str(data / "gec_test.m2"),
        "--lexicons", str(data / "lexicons"), "--out", str(out),
    ]  # fmt: skip


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_synth(data: Path) -> list[str]:
    manifest = _json(data / "manifest.json")
    problems = []
    for split in ("train", "dev", "test"):
        problems += checks.check_gold_m2(
            data / f"gec_{split}.m2", data / "grammar.json", manifest["gec"][split]["edits"]
        )
    return problems


def _check_judge(data: Path, out: Path) -> list[str]:
    dev = len(checks.read_lines(data / "cola_dev.tsv"))
    return checks.check_judge_metrics(_json(out / "judge_metrics.json"), dev)


def _write_inputs(data: Path) -> None:
    """Test sources and gold targets, one per line, read with the benchmark's own M2 reader."""
    m2 = data / "gec_test.m2"
    for name, lines in (("sources.txt", checks.sources(m2)), ("targets.txt", checks.gold_targets(m2))):
        (data / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _judge_fingerprint(judge_dir: Path) -> dict:
    report = _json(judge_dir / "judge_metrics.json")
    return {"judge_acc": report["accuracy"], "judge_mcc": report["mcc"]}


# --- quickstart: the README chain, training included ----------------------

QS = {"train": 800, "dev": 100, "test": 200, "cola": 2000, "gec_epochs": 8}


def _qs_setup(seed: int, d: Path) -> list[Step]:
    return [Step("cli_start", ["--help"])]


def _qs_round(seed: int, _setup: Path, d: Path) -> list[Step]:
    data, judge, gec = d / "synth", d / "judge", d / "gec"
    decode, evaluate, analysis = d / "decode", d / "eval", d / "analysis"
    n = QS["test"]
    sources = data / "sources.txt"

    def gec_check() -> list[str]:
        records = [json.loads(line) for line in checks.read_lines(gec / "train_log.jsonl")]
        dev_acc = _json(judge / "judge.json")["dev_accuracy"]
        return checks.check_train_log(records, QS["gec_epochs"], dev_acc)

    def analysis_check() -> list[str]:
        punct = checks.count_gold_type(data / "gec_test.m2", "PUNCT")
        return checks.check_punct_filter(_json(analysis / "error_analysis.json"), punct)

    return [
        Step("synth_gen", _synth(seed, data, QS["train"], QS["dev"], n, QS["cola"]), lambda: _check_synth(data)),
        Step(
            "train_judge",
            _judge(seed, data, judge),
            lambda: _check_judge(data, judge),
        ),
        Step(
            "train_gec",
            [
                "train-gec", "--train", str(data / "gec_train.m2"), "--dev", str(data / "gec_dev.m2"),
                "--judge", str(judge / "judge.json"), "--loss", "dynamic",
                "--epochs", str(QS["gec_epochs"]), "--lr", "0.01", "--seed", str(seed),
                "--out", str(gec),
            ],  # fmt: skip
            gec_check,
        ),
        Step(
            "decode",
            _decode(gec, sources, decode, "--judge", str(judge / "judge.json"), "--beam", "4"),
            lambda: checks.check_line_count(decode / "corrected.txt", n),
            n,
            lambda: _write_inputs(data),  # the README's awk step
        ),
        Step(
            "evaluate",
            _evaluate(decode / "corrected.txt", data, evaluate),
            lambda: checks.check_prf(_json(evaluate / "evaluate.json"), n),
            n,
        ),
        Step(
            "error_analysis",
            [
                "error-analysis", "--hyp", str(decode / "corrected.txt"),
                "--gold", str(data / "gec_test.m2"), "--types", "PUNCT,OTHER",
                "--lexicons", str(data / "lexicons"), "--out", str(analysis),
            ],  # fmt: skip
            analysis_check,
            n,
        ),
    ]


def _qs_final(seed: int, _setup: Path, rounds: list[Path]) -> list[Step]:
    """Decode equivalences on the first SUBSET test sources, and scoring of known hypotheses."""
    d = rounds[-1]
    data, judge, gec, f = d / "synth", str(d / "judge" / "judge.json"), d / "gec", d / "final"
    subset = f / "subset.txt"

    def write_subset() -> None:
        f.mkdir(exist_ok=True)
        lines = checks.read_lines(data / "sources.txt")[:SUBSET]
        subset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def same_as(out: str, ref: str, what: str) -> Callable[[], list[str]]:
        return lambda: checks.check_same_lines(
            checks.read_lines(f / out / "corrected.txt"), checks.read_lines(f / ref / "corrected.txt"), what
        )

    return [
        Step("beam", _decode(gec, subset, f / "beam", "--beam", "4"), prepare=write_subset),
        Step(
            "rerank_lam0",
            _decode(gec, subset, f / "lam0", "--beam", "4", "--judge", judge, "--rerank-lam", "0"),
            same_as("lam0", "beam", "--beam 4 --judge --rerank-lam 0 vs --beam 4"),
        ),
        Step("greedy", _decode(gec, subset, f / "greedy", "--beam", "1")),
        Step(
            "beam1_judge",
            _decode(gec, subset, f / "beam1", "--beam", "1", "--judge", judge),
            same_as("beam1", "greedy", "--beam 1 --judge vs greedy"),
        ),
        Step(
            "evaluate_gold",
            _evaluate(data / "targets.txt", data, f / "eval_gold"),
            lambda: checks.check_gold_as_hypothesis(_json(f / "eval_gold" / "evaluate.json")),
        ),
        Step(
            "evaluate_sources",
            _evaluate(data / "sources.txt", data, f / "eval_sources"),
            lambda: checks.check_source_as_hypothesis(_json(f / "eval_sources" / "evaluate.json")),
        ),
    ]


def _qs_fingerprint(_setup: Path, d: Path) -> dict:
    reranked = checks.read_lines(d / "decode" / "corrected.txt")
    beam = checks.read_lines(d / "final" / "beam" / "corrected.txt")
    return {
        **_judge_fingerprint(d / "judge"),
        "f05": _json(d / "eval" / "evaluate.json")["f0.5"],
        f"rerank_flips_first_{SUBSET}": sum(a != b for a, b in zip(beam, reranked)),
        "at_step_limit": checks.at_step_limit(checks.read_lines(d / "synth" / "sources.txt"), reranked),
        "sha256": {"corrected.txt": checks.sha256(d / "decode" / "corrected.txt")},
    }


# --- ablate_grid: the variant grid, many independent cells ----------------

AB = {"train": 400, "dev": 50, "test": 100, "cola": 1000, "epochs": 4, "seeds": 2}


def _ab_setup(seed: int, d: Path) -> list[Step]:
    data, judge = d / "synth", d / "judge"
    return [
        Step("synth_gen", _synth(seed, data, AB["train"], AB["dev"], AB["test"], AB["cola"]), lambda: _check_synth(data)),
        Step("train_judge", _judge(seed, data, judge), lambda: _check_judge(data, judge)),
    ]


def _ab_round(seed: int, s: Path, d: Path) -> list[Step]:
    data, seeds = s / "synth", [seed + i for i in range(AB["seeds"])]
    return [
        Step(
            "ablate",
            [
                "ablate", "--train", str(data / "gec_train.m2"), "--test", str(data / "gec_test.m2"),
                "--judge", str(s / "judge" / "judge.json"), "--seeds", ",".join(map(str, seeds)),
                "--epochs", str(AB["epochs"]), "--lr", "0.01", "--batch-size", "16",
                "--out", str(d / "ablate"),
            ],  # fmt: skip
            lambda: checks.check_ablation(_json(d / "ablate" / "ablation.json"), ABLATE_VARIANTS, seeds),
            len(ABLATE_VARIANTS) * len(seeds),
        )
    ]


def _ab_fingerprint(s: Path, d: Path) -> dict:
    report = _json(d / "ablate" / "ablation.json")
    return {
        **_judge_fingerprint(s / "judge"),
        "f05": {name: row["f0.5"] for name, row in report["variants"].items()},
        "sha256": {"ablation.json": checks.sha256(d / "ablate" / "ablation.json")},
    }


def _no_final(seed: int, s: Path, rounds: list[Path]) -> list[Step]:
    return []


def _files(*names: str) -> Callable[[Path], list[Path]]:
    return lambda d: [d / name for name in names]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "quickstart",
            _qs_setup,
            _qs_round,
            _qs_final,
            _files(),
            _files("synth/gec_test.m2", "judge/judge.json", "gec/gec_model/params.npy", "decode/corrected.txt"),
            _qs_fingerprint,
        ),
        Workload(
            "ablate_grid",
            _ab_setup,
            _ab_round,
            _no_final,
            _files("synth/gec_train.m2", "judge/judge.json"),
            _files("ablate/ablation.json"),
            _ab_fingerprint,
            env={"GECKIT_THREADS": str(len(os.sched_getaffinity(0)))},
        ),
    )
}
