"""Command-line front end: every pipeline stage as one subcommand.

Option resolution order, lowest to highest: built-in defaults, the
--config JSON file, the GECKIT_SEED and GECKIT_OUT environment
variables, explicit command-line flags. Config keys use the flag names
with underscores; unknown keys and a key set twice are rejected. An
empty string is refused for every path or text value, --config and
--out included.

A subcommand accepts only options that it reads. Only the four
subcommands that draw random numbers (synth-gen, build-cola,
train-judge, train-gec) take a seed; the others refuse --seed and the
seed key and ignore GECKIT_SEED (ablate seeds each cell from --seeds).
Two combinations whose value would go unread are refused: train-gec
--judge without --loss dynamic, and decode --rerank-lam other than its
default 0.5 without --judge.

The option values are checked first. Then one loader reads and checks
every input file once, before the output directory is made, so a
rejected value or input leaves nothing behind: an M2 or TSV input with
no records is refused, a sentence file may be empty (empty in, empty
out), and --lexicons must name a directory. Every run writes an
effective-config snapshot (<subcommand>.config.json) beside its outputs. Reports are JSON plus an
aligned plain-text table and are bytewise identical across reruns with
the same configuration; wall-clock timestamps go only to the run.log
sidecar.

Exit codes: 0 success, 1 invalid configuration or data (or a size too
large to allocate), 2 I/O failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

# Only the modules that every subcommand needs are imported here, so --help
# and an option refused while resolving load neither numpy nor the stages.
# Each runner and reader imports the stage modules it uses.
import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .errors import ConfigError, FormatError, GeckitError
from .losses import DYNAMIC, LOSS_KINDS, PLAIN_CE
from .textcore import (
    CORE_ERROR_TYPES,
    DROP_EDITS,
    FILTER_MODES,
    MIX_A,
    PRESETS,
    AnnotatedPair,
    emit_cola_tsv,
    emit_m2,
    emit_sentences,
    parse_cola_tsv,
    parse_m2,
    parse_sentences,
    read_text,
    write_json,
    write_text,
)

_ENV_VARS = (("seed", "GECKIT_SEED"), ("out", "GECKIT_OUT"))


@dataclass(frozen=True)
class _Opt:
    # A value kind (int, float, str, bool, seeds, names), or an input kind
    # (m2, tsv, sentences, judge, model, lexicons, m2_list) that _load_inputs reads.
    kind: str
    default: object = None
    help: str = ""
    choices: tuple = ()
    required: bool = False


_GLOBAL_OPTS = {"out": _Opt("str", "geckit_out", "output directory")}
# Only for the subcommands that draw random numbers.
_SEED_OPT = _Opt("int", 0, "random seed")


def _parse_list(value, element: type) -> tuple:
    """Integers (element int) or names (str), comma-separated or as a non-empty list."""
    what = "integers" if element is int else "names"
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if element is int and isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"expected a non-empty comma-separated list of {what}")
    # As for an int option, a float, a bool or a nested value is not an integer.
    if not all(isinstance(v, (element, str)) and not isinstance(v, bool) for v in value):
        raise ValueError(f"expected a list of {what}")
    return tuple(element(v) for v in value)


def _coerce(command: str, key: str, opt: _Opt, value):
    if value is None:
        return None
    try:
        if opt.kind == "int":
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError("expected an integer")
            result: object = int(value)
        elif opt.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError("expected a number")
            result = float(value)
            if not math.isfinite(result):
                raise ValueError("expected a finite number")
        elif opt.kind == "str" or opt.kind in _READERS:
            if not isinstance(value, str) or not value:
                raise ValueError("expected a non-empty string")
            result = value
        elif opt.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            result = value
        elif opt.kind in ("seeds", "names"):
            result = _parse_list(value, int if opt.kind == "seeds" else str)
        elif opt.kind == "m2_list":
            paths = [value] if isinstance(value, str) else value
            listed = isinstance(paths, (list, tuple)) and len(paths) > 0
            if not listed or not all(isinstance(v, str) and v for v in paths):
                raise ValueError("expected a non-empty path or a non-empty list of them")
            result = list(paths)
        else:  # pragma: no cover - registry typo
            raise AssertionError(opt.kind)
    except ValueError as exc:
        raise ConfigError(f"{command}: bad value for config key {key!r}: {exc}") from None
    if opt.choices and result not in opt.choices:
        raise ConfigError(
            f"{command}: config key {key!r} must be one of {list(opt.choices)}, got {result!r}"
        )
    return result


def _read_records(path: str, parse: Callable, what: str) -> list:
    records = parse(read_text(path), name=path)
    if not records:
        raise FormatError(f"no {what} records", name=path)
    return records


def _read_lexicons(path: str):
    from .align import load_lexicons

    return load_lexicons(path)


def _read_judge(path: str):
    from .judge import JudgeModel

    return JudgeModel.load(path)


def _read_model(path: str):
    from .gec import Seq2SeqModel

    return Seq2SeqModel.load(path)


# The reader of each input kind, by the kind in the registry.
_READERS: dict[str, Callable[[str], object]] = {
    "m2": lambda path: _read_records(path, parse_m2, "M2"),
    "tsv": lambda path: _read_records(path, parse_cola_tsv, "TSV"),
    "sentences": lambda path: parse_sentences(read_text(path)),
    "judge": _read_judge,
    "model": _read_model,
    "lexicons": _read_lexicons,
}


def _load_inputs(command: str, opts: dict) -> dict:
    """Every input option of the command, read, parsed and checked once, in registry order.

    An unset option gives None, and build-cola's m2 list gives {path: pairs}.
    This is the only place where a subcommand reads its input files.
    """
    inputs: dict = {}
    for key, opt in _COMMANDS[command].opts.items():
        if opt.kind == "m2_list":
            inputs[key] = {path: _READERS["m2"](path) for path in dict.fromkeys(opts[key])}
        elif opt.kind in _READERS:
            inputs[key] = None if opts[key] is None else _READERS[opt.kind](opts[key])
    return inputs


def _check_one_for_one(opts: dict, inputs: dict, first: str, second: str) -> None:
    """Refuse two inputs whose records do not correspond one for one."""
    if len(inputs[first]) != len(inputs[second]):
        raise ConfigError(
            f"{opts[first]} has {len(inputs[first])} sentences"
            f" but {opts[second]} has {len(inputs[second])}"
        )


def _train_recipe(opts: dict, pairs) -> tuple:
    """The training stage, model shape and vocabulary that the shared training options set.

    The model keeps the default seed; train-gec and ablate each set their own.
    """
    from .gec import ModelConfig, TrainStage, Vocab

    stage = TrainStage(
        pairs=tuple(pairs),
        epochs=opts["epochs"],
        lr=opts["lr"],
        loss=opts.get("loss", PLAIN_CE),
        batch_size=opts["batch_size"],
        optimizer=opts["optimizer"],
    )
    config = ModelConfig(embed_dim=opts["embed_dim"], hidden_dim=opts["hidden_dim"])
    vocab = Vocab.from_pairs(pairs)
    return stage, config, vocab


def _judge_report(counts) -> tuple[dict, str]:
    from .judge import acc, mcc

    data = {
        "accuracy": round(acc(counts), 4),
        "mcc": round(mcc(counts), 4),
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": counts.tn,
        "total": counts.total,
    }
    text = (
        f"instances  {data['total']:>8}\n"
        f"accuracy   {data['accuracy']:>8.4f}\n"
        f"mcc        {data['mcc']:>8.4f}\n"
        f"tp/fp/fn/tn {data['tp']}/{data['fp']}/{data['fn']}/{data['tn']}\n"
    )
    return data, text


# --- subcommand runners -----------------------------------------------------

# A runner checks its option values and builds its config objects, then
# calls load() once for its parsed inputs (see _load_inputs) and checks
# them against each other and against the options, then calls start()
# once: it makes the output directory, writes the config snapshot and
# returns the directory. So nothing is written for a rejected value or
# input, and no runner reads a file of its own.
_Load = Callable[[], dict]
_Start = Callable[[], Path]


def _run_synth_gen(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .synth import SizeConfig, make_benchmark, make_preset, write_benchmark

    spec = make_preset(opts["preset"])
    sizes = SizeConfig(
        gec_train=opts["gec_train"],
        gec_dev=opts["gec_dev"],
        gec_test=opts["gec_test"],
        cola_pairs=opts["cola_pairs"],
    )
    # Built before start(), so sizes the grammar cannot fill leave nothing behind.
    benchmark = make_benchmark(spec, sizes, seed=opts["seed"])
    out = start()
    paths = write_benchmark(benchmark, out)
    return [f"wrote benchmark {opts['preset']!r} to {out} ({len(paths)} entries)"]


def _run_extract_edits(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .align import extract_edits

    inputs = load()
    _check_one_for_one(opts, inputs, "source", "target")
    out = start()
    pairs = [
        AnnotatedPair.from_edits(src, extract_edits(src, tgt, inputs["lexicons"]))
        for src, tgt in zip(inputs["source"], inputs["target"])
    ]
    write_text(out / "edits.m2", emit_m2(pairs))
    n_edits = sum(len(pair.gold[0]) for pair in pairs)
    return [f"wrote {out / 'edits.m2'} ({len(pairs)} sentences, {n_edits} edits)"]


def _run_build_cola(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .colacorpus import FilterConfig, SplitConfig, build_cola_from_gec, corpus_stats, merge_corpora

    filters = FilterConfig(opts["min_len"], opts["max_len"], opts["max_edits"])
    # M2 input yields only GEC-origin instances, which never enter test.
    split = SplitConfig(dev=opts["dev_frac"], test=0.0)
    inputs = load()
    out = start()
    # Keyed by position, not path, so that the same bytes anywhere give the same stats.
    parts = {
        str(i): build_cola_from_gec(pairs, filters) for i, pairs in enumerate(inputs["m2"].values())
    }
    corpus = merge_corpora(
        parts,
        split,
        seed=opts["seed"],
        dedupe=not opts["no_dedupe"],
        balance=bool(opts["balance"]),
    )
    for name in ("train", "dev"):
        write_text(out / f"cola_{name}.tsv", emit_cola_tsv(corpus.split(name)))
    write_json(out / "cola_stats.json", {"meta": corpus.meta, "stats": corpus_stats(corpus)})
    return [f"wrote cola splits to {out} ({len(corpus)} instances)"]


def _run_train_judge(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .judge import JudgeConfig, acc, evaluate_judge, train_judge

    config = JudgeConfig(
        dim=opts["dim"],
        epochs=opts["epochs"],
        lr=opts["lr"],
        l2=opts["l2"],
        batch_size=opts["batch_size"],
        seed=opts["seed"],
    )
    inputs = load()
    # Trained before start(), so a --dim too large to allocate leaves nothing behind.
    model = train_judge(inputs["train"], config)
    counts = evaluate_judge(model, inputs["dev"])
    out = start()
    replace(model, dev_accuracy=acc(counts)).save(out / "judge.json")
    data, text = _judge_report(counts)
    write_json(out / "judge_metrics.json", data)
    write_text(out / "judge_metrics.txt", text)
    return [
        f"wrote {out / 'judge.json'}",
        f"dev accuracy {data['accuracy']:.4f}, mcc {data['mcc']:.4f}",
    ]


def _run_judge_eval(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .judge import evaluate_judge

    inputs = load()
    out = start()
    data, text = _judge_report(evaluate_judge(inputs["model"], inputs["data"]))
    write_json(out / "judge_eval.json", data)
    write_text(out / "judge_eval.txt", text)
    return [f"accuracy {data['accuracy']:.4f}, mcc {data['mcc']:.4f} on {data['total']} instances"]


def _run_train_gec(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .gec import Seq2SeqModel, check_dynamic_judge, train_gec

    if bool(opts["judge"]) != (opts["loss"] == DYNAMIC):
        raise ConfigError(
            "train-gec: the dynamic loss needs option 'judge', and no other loss reads it"
        )
    inputs = load()
    if opts["loss"] == DYNAMIC:
        check_dynamic_judge(inputs["judge"])
    stage, config, vocab = _train_recipe(opts, inputs["train"])
    # Built before start(), so a model too large to allocate leaves nothing behind.
    model = Seq2SeqModel(vocab, replace(config, seed=opts["seed"]))
    out = start()
    log = train_gec(model, stage, inputs["judge"], dev_pairs=inputs["dev"])
    model.save(out / "gec_model")
    log.write(out / "train_log.jsonl")
    last = log.last()
    lines = [f"wrote {out / 'gec_model'} ({model.num_params()} parameters)"]
    if last.dev_f05 is None:
        lines.append(f"final mean loss {last.mean_loss:.4f}")
    else:
        lines.append(f"final mean loss {last.mean_loss:.4f}, dev F0.5 {last.dev_f05:.4f}")
    return lines


def _run_decode(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .gec import check_beam_size, check_rerank_lam, decode

    if not opts["judge"] and opts["rerank_lam"] != _BEAM_OPTS["rerank_lam"].default:
        raise ConfigError(
            "decode: option 'rerank_lam' weighs the judge's score, so it needs 'judge'"
        )
    check_rerank_lam(opts["rerank_lam"])
    inputs = load()
    model = inputs["model"]
    check_beam_size(opts["beam"], len(model.vocab))
    out = start()
    decoded = decode(model, inputs["input"], opts["beam"], inputs["judge"], opts["rerank_lam"])
    write_text(out / "corrected.txt", emit_sentences(decoded))
    return [f"wrote {out / 'corrected.txt'} ({len(decoded)} sentences)"]


def _run_evaluate(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .evalmetrics import evaluate_hypotheses

    inputs = load()
    _check_one_for_one(opts, inputs, "hyp", "gold")
    out = start()
    report = evaluate_hypotheses(inputs["hyp"], inputs["gold"], inputs["lexicons"])
    write_json(out / "evaluate.json", report.to_json_dict())
    write_text(out / "evaluate.txt", report.render_table())
    d = report.to_json_dict()
    return [f"P {d['precision']:.2f}  R {d['recall']:.2f}  F0.5 {d['f0.5']:.2f}"]


def _run_error_analysis(opts: dict, load: _Load, start: _Start) -> list[str]:
    from .align import extract_edits
    from .evalmetrics import evaluate_corpus, filter_eval, prf_table

    for etype in opts["types"]:
        if etype not in CORE_ERROR_TYPES:
            raise ConfigError(
                f"error-analysis: unknown error type {etype!r} in 'types'"
                f" (known: {', '.join(CORE_ERROR_TYPES)})"
            )
    inputs = load()
    _check_one_for_one(opts, inputs, "hyp", "gold")
    hyps, pairs, lexicons = inputs["hyp"], inputs["gold"], inputs["lexicons"]
    hyp_edits = [extract_edits(pair.source, hyp, lexicons) for hyp, pair in zip(hyps, pairs)]
    sections = {"unfiltered": evaluate_corpus(hyp_edits, pairs)}
    for etype in opts["types"]:
        sections[f"no_{etype}"] = filter_eval(
            hyp_edits, pairs, {etype}, mode=opts["filter_mode"]
        )
    if len(opts["types"]) > 1:
        combined = "no_" + "_".join(opts["types"])
        sections[combined] = filter_eval(
            hyp_edits, pairs, set(opts["types"]), mode=opts["filter_mode"]
        )
    # Scored before start(), so types that exclude every gold edit leave nothing behind.
    out = start()
    data = {name: report.to_json_dict() for name, report in sections.items()}
    write_json(out / "error_analysis.json", data)
    table = prf_table("analysis", list(sections.items()))
    write_text(out / "error_analysis.txt", table)
    return table.splitlines()


def _run_ablate(opts: dict, load: _Load, start: _Start) -> list[str]:
    # One OpenBLAS thread, read as numpy loads, so that the groups fork from a
    # single-threaded process (Python 3.12 and later warn at a threaded fork).
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .experiment import ablation_run
    from .gec import Seq2SeqModel, check_beam_size, check_dynamic_judge, check_rerank_lam

    check_rerank_lam(opts["rerank_lam"])
    inputs = load()
    check_dynamic_judge(inputs["judge"])
    stage, config, vocab = _train_recipe(opts, inputs["train"])
    check_beam_size(opts["beam"], len(vocab))
    # One model built here, and dropped: a model too large to allocate leaves
    # nothing behind, and its generator loads numpy.random once in this process,
    # so the forked groups share those library pages instead of each loading them.
    Seq2SeqModel(vocab, config)
    out = start()
    beam, lam = opts["beam"], opts["rerank_lam"]
    report = ablation_run(stage, inputs["test"], inputs["judge"], opts["seeds"], config, beam, lam)
    write_json(out / "ablation.json", report.to_json_dict())
    write_text(out / "ablation.txt", report.render_table())
    return report.render_table().splitlines()


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    help: str
    opts: dict
    run: Callable[[dict, _Load, _Start], list[str]]


_LEXICONS_OPT = _Opt("lexicons", None, "lexicon directory for edit classification")
# Shared by train-gec and ablate; _train_recipe builds their stage and model shape.
_TRAIN_OPTS = {
    "epochs": _Opt("int", 30, "training epochs"),
    "lr": _Opt("float", 0.002, "learning rate"),
    "batch_size": _Opt("int", 32, "minibatch size"),
    "optimizer": _Opt("str", "adam", "optimizer", choices=("adam", "sgd")),
    "embed_dim": _Opt("int", 32, "embedding width"),
    "hidden_dim": _Opt("int", 64, "recurrent state width"),
}
_BEAM_OPTS = {
    "beam": _Opt("int", 4, "beam size; in ablate, that of the reranking variants"),
    "rerank_lam": _Opt("float", 0.5, "judge penalty weight while reranking (needs a judge)"),
}

_COMMANDS: dict[str, _Command] = {
    "synth-gen": _Command(
        "generate a synthetic benchmark from a grammar preset",
        {
            "preset": _Opt("str", MIX_A, "grammar preset", choices=PRESETS),
            "gec_train": _Opt("int", 2000, "correction training pairs"),
            "gec_dev": _Opt("int", 300, "correction dev pairs"),
            "gec_test": _Opt("int", 500, "correction test pairs"),
            "cola_pairs": _Opt("int", 10000, "acceptability sentence pairs"),
            "seed": _SEED_OPT,
        },
        _run_synth_gen,
    ),
    "extract-edits": _Command(
        "align parallel text files and emit typed edits as M2",
        {
            "source": _Opt("sentences", None, "source sentences, one per line", required=True),
            "target": _Opt("sentences", None, "corrected sentences, one per line", required=True),
            "lexicons": _LEXICONS_OPT,
        },
        _run_extract_edits,
    ),
    "build-cola": _Command(
        "mine labeled acceptability train/dev splits from M2 correction data",
        {
            "m2": _Opt("m2_list", None, "M2 file (repeatable)", required=True),
            "min_len": _Opt("int", 3, "minimum source length"),
            "max_len": _Opt("int", 80, "maximum source length"),
            "max_edits": _Opt("int", 10, "maximum edits per pair"),
            "dev_frac": _Opt("float", 0.1, "dev split fraction; train takes the rest"),
            "balance": _Opt("bool", False, "downsample the majority label"),
            "no_dedupe": _Opt("bool", False, "keep exact duplicate sentences"),
            "seed": _SEED_OPT,
        },
        _run_build_cola,
    ),
    "train-judge": _Command(
        "fit the acceptability judge on labeled TSV splits",
        {
            "train": _Opt("tsv", None, "training TSV (label<TAB>sentence)", required=True),
            "dev": _Opt("tsv", None, "dev TSV for the frozen accuracy", required=True),
            "dim": _Opt("int", 2**18, "hashed feature dimension"),
            "epochs": _Opt("int", 80, "training epochs"),
            "lr": _Opt("float", 8.0, "learning rate"),
            "l2": _Opt("float", 1e-6, "L2 penalty"),
            "batch_size": _Opt("int", 64, "minibatch size"),
            "seed": _SEED_OPT,
        },
        _run_train_judge,
    ),
    "judge-eval": _Command(
        "score a saved judge on a labeled TSV",
        {
            "model": _Opt("judge", None, "saved judge JSON", required=True),
            "data": _Opt("tsv", None, "labeled TSV to score", required=True),
        },
        _run_judge_eval,
    ),
    "train-gec": _Command(
        "train the corrector on an M2 file",
        {
            "train": _Opt("m2", None, "training M2", required=True),
            "dev": _Opt("m2", None, "dev M2 for per-epoch F0.5"),
            "judge": _Opt("judge", None, "saved judge JSON (for the dynamic loss only)"),
            "loss": _Opt("str", PLAIN_CE, "training loss", choices=LOSS_KINDS),
            **_TRAIN_OPTS,
            "seed": _SEED_OPT,
        },
        _run_train_gec,
    ),
    "decode": _Command(
        "correct sentences with a saved model, optionally judge-reranked",
        {
            "model": _Opt("model", None, "saved model directory", required=True),
            "input": _Opt("sentences", None, "sentences to correct, one per line", required=True),
            "judge": _Opt("judge", None, "saved judge JSON; enables beam reranking"),
            **_BEAM_OPTS,
        },
        _run_decode,
    ),
    "evaluate": _Command(
        "score corrected text against gold M2",
        {
            "hyp": _Opt("sentences", None, "corrected sentences, one per line", required=True),
            "gold": _Opt("m2", None, "gold M2", required=True),
            "lexicons": _LEXICONS_OPT,
        },
        _run_evaluate,
    ),
    "error-analysis": _Command(
        "rescore with error types excluded individually and combined",
        {
            "hyp": _Opt("sentences", None, "corrected sentences, one per line", required=True),
            "gold": _Opt("m2", None, "gold M2", required=True),
            "types": _Opt("names", ("PUNCT", "OTHER"), "error types to exclude"),
            "filter_mode": _Opt("str", DROP_EDITS, "exclusion mode", choices=FILTER_MODES),
            "lexicons": _LEXICONS_OPT,
        },
        _run_error_analysis,
    ),
    "ablate": _Command(
        "train and score the four-variant grid over fixed seeds",
        {
            "train": _Opt("m2", None, "training M2", required=True),
            "test": _Opt("m2", None, "test M2", required=True),
            "judge": _Opt("judge", None, "saved judge JSON", required=True),
            "seeds": _Opt("seeds", (0, 1, 2, 3, 4), "comma-separated per-cell seeds"),
            **_TRAIN_OPTS,
            **_BEAM_OPTS,
        },
        _run_ablate,
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose failures surface as validation errors."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_options(parser: argparse.ArgumentParser, opts: dict) -> None:
    for key, opt in opts.items():
        flag = "--" + key.replace("_", "-")
        if opt.kind == "bool":
            parser.add_argument(flag, dest=key, action="store_true", default=None, help=opt.help)
        elif opt.kind == "m2_list":
            parser.add_argument(
                flag, dest=key, action="append", default=None, metavar="PATH", help=opt.help
            )
        elif opt.kind == "int":
            parser.add_argument(flag, dest=key, type=int, default=None, help=opt.help)
        elif opt.kind == "float":
            parser.add_argument(flag, dest=key, type=float, default=None, help=opt.help)
        else:
            parser.add_argument(flag, dest=key, type=str, default=None, help=opt.help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geckit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, command in _COMMANDS.items():
        # Flags match exactly: a prefix such as --mode must not select --model.
        sub = subparsers.add_parser(
            name,
            help=command.help,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            allow_abbrev=False,
        )
        sub.add_argument("--config", type=str, default=None, help="JSON config file")
        _add_options(sub, _GLOBAL_OPTS)
        _add_options(sub, command.opts)
    return parser


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """Overlay defaults, config file, environment, and flags, then validate."""
    schema = {**_GLOBAL_OPTS, **_COMMANDS[command].opts}
    effective = {key: opt.default for key, opt in schema.items()}
    if args.config is not None:
        if not args.config:
            raise ConfigError(f"{command}: bad value for option 'config': expected a non-empty path")

        def unique_keys(pairs: list[tuple[str, object]]) -> dict:
            data: dict = {}
            for key, value in pairs:
                if key in data:
                    raise ConfigError(f"{args.config}: duplicate config key {key!r}")
                data[key] = value
            return data

        try:
            data = json.loads(read_text(args.config), object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise FormatError(
                "config file is not valid JSON", name=args.config, line=exc.lineno
            ) from exc
        if not isinstance(data, dict):
            raise FormatError("config file must hold a JSON object", name=args.config)
        for key in sorted(data):
            if key not in schema:
                raise ConfigError(
                    f"{args.config}: unknown config key {key!r} for subcommand {command!r}"
                )
            if data[key] is None:
                # null means "not set", which only an option without a default can be.
                if schema[key].default is not None:
                    raise ConfigError(
                        f"{command}: bad value for config key {key!r}: null"
                        f" (omit the key for the default {schema[key].default!r})"
                    )
                continue
            effective[key] = data[key]
    for key, var in _ENV_VARS:
        raw = os.environ.get(var)
        if raw is not None and key in schema:
            effective[key] = raw
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            effective[key] = flag_value
    resolved = {key: _coerce(command, key, schema[key], effective[key]) for key in schema}
    for key, opt in schema.items():
        if opt.required and resolved[key] is None:
            raise ConfigError(
                f"{command}: missing required option {key!r}"
                f" (--{key.replace('_', '-')} or config key)"
            )
    # numpy's seed sequences take only non-negative integers.
    if resolved.get("seed", 0) < 0:
        raise ConfigError(f"{command}: option 'seed' must be >= 0, got {resolved['seed']}")
    seeds = list(resolved.get("seeds", ()))
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"{command}: option 'seeds' must all be >= 0, got {seeds}")
    for key, opt in schema.items():
        if opt.kind in ("seeds", "names"):
            values = list(resolved[key])
            if len(set(values)) != len(values):
                raise ConfigError(f"{command}: option {key!r} must be unique, got {values}")
    return resolved


def _log_line(out: Path, command: str, status: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    with (out / "run.log").open("a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {command} {status}\n")


def main(argv: list[str] | None = None) -> int:
    command = None
    out = None  # set once the run has started, so that a failure is logged

    def start() -> Path:
        nonlocal out
        path = Path(opts["out"])
        path.mkdir(parents=True, exist_ok=True)
        write_json(path / f"{command}.config.json", {"subcommand": command, **opts})
        _log_line(path, command, "started")
        out = path
        return path

    try:
        args = build_parser().parse_args(argv)
        command = args.command
        if command is None:
            raise ConfigError("no subcommand given (see geckit --help)")
        opts = resolve_options(command, args)
        summary = _COMMANDS[command].run(opts, lambda: _load_inputs(command, opts), start)
    except (GeckitError, MemoryError, OSError) as exc:
        # numpy's MemoryError names the size it could not allocate.
        message = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
        if out is not None:
            _log_line(out, command, f"failed: {message}")
        if isinstance(exc, OSError):
            print(f"i/o error: {message}", file=sys.stderr)
            return 2
        print(f"error: {message}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        if out is not None:
            _log_line(out, command, "failed: interrupted")
        print("interrupted", file=sys.stderr)
        return 130
    _log_line(out, command, "finished")
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
