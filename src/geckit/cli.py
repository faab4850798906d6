"""Command-line front end: every pipeline stage as one subcommand.

Option resolution order, lowest to highest: built-in defaults, the
--config JSON file, the GECKIT_SEED and GECKIT_OUT environment
variables, explicit command-line flags. Config keys use the flag names
with underscores; unknown keys are rejected.

Every option value, and the training pairs a training stage holds, is
checked before the output directory is made, so a rejected value
leaves nothing behind. Every run writes an effective-config snapshot
(<subcommand>.config.json) beside its outputs. Reports are JSON plus an
aligned plain-text table and are bytewise identical across reruns with
the same configuration; wall-clock timestamps go only to the run.log
sidecar.

Exit codes: 0 success, 1 invalid configuration or data (or a size too
large to allocate), 2 I/O failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .align import LexiconSet, extract_edits, load_lexicons
from .colacorpus import (
    FilterConfig,
    SplitConfig,
    build_cola_from_gec,
    corpus_stats,
    merge_corpora,
)
from .errors import ConfigError, FormatError, GeckitError
from .evalmetrics import (
    DROP_EDITS,
    FILTER_MODES,
    MetricsReport,
    evaluate_corpus,
    evaluate_hypotheses,
    filter_eval,
    prf_table,
)
from .experiment import AblationVariant, ablation_run
from .gec import (
    DYNAMIC,
    LOSS_KINDS,
    PLAIN_CE,
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    check_beam_size,
    decode,
    train_gec,
)
from .gec.model import _param_shapes
from .judge import JudgeConfig, JudgeModel, acc, evaluate_judge, mcc, train_judge
from .synth import PRESETS, SizeConfig, make_benchmark, make_preset, write_benchmark
from .textcore import (
    CORE_ERROR_TYPES,
    AnnotatedPair,
    Sentence,
    emit_cola_tsv,
    emit_m2,
    parse_cola_tsv,
    parse_m2,
    write_json,
)

_ENV_VARS = (("seed", "GECKIT_SEED"), ("out", "GECKIT_OUT"))


@dataclass(frozen=True)
class _Opt:
    kind: str
    default: object = None
    help: str = ""
    choices: tuple = ()
    required: bool = False


_GLOBAL_OPTS = {
    "seed": _Opt("int", 0, "base random seed for every stochastic step"),
    "out": _Opt("str", "geckit_out", "output directory"),
}


def _parse_seeds(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("expected a non-empty comma-separated list of integers")
    return tuple(int(v) for v in value)


def _parse_names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("expected a non-empty comma-separated list of names")
    if not all(isinstance(v, str) for v in value):
        raise ValueError("expected a list of names")
    return tuple(value)


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
        elif opt.kind == "str":
            if not isinstance(value, str):
                raise ValueError("expected a string")
            result = value
        elif opt.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            result = value
        elif opt.kind == "seeds":
            result = _parse_seeds(value)
        elif opt.kind == "names":
            result = _parse_names(value)
        elif opt.kind == "paths":
            if isinstance(value, str):
                result = [value]
            elif isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
                result = list(value)
            else:
                raise ValueError("expected a path or list of paths")
        else:  # pragma: no cover - registry typo
            raise AssertionError(opt.kind)
    except ValueError as exc:
        raise ConfigError(f"{command}: bad value for config key {key!r}: {exc}") from None
    if opt.choices and result not in opt.choices:
        raise ConfigError(
            f"{command}: config key {key!r} must be one of {list(opt.choices)}, got {result!r}"
        )
    return result


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_sentences(path: str) -> list[Sentence]:
    # A blank line is a legitimate empty sentence (e.g. a deleted correction).
    return [Sentence(tuple(line.split())) for line in _read_text(path).splitlines()]


def _write_sentences(path: Path, sentences) -> None:
    path.write_text("".join(s.text + "\n" for s in sentences), encoding="utf-8")


def _load_lexicons(opts: dict) -> LexiconSet | None:
    return load_lexicons(opts["lexicons"]) if opts.get("lexicons") else None


def _read_hypotheses(opts: dict) -> tuple[list[Sentence], list[AnnotatedPair]]:
    """The --hyp sentences and the --gold pairs they correct, one for one."""
    pairs = parse_m2(_read_text(opts["gold"]), name=opts["gold"])
    hyps = _read_sentences(opts["hyp"])
    if len(hyps) != len(pairs):
        raise ConfigError(
            f"{opts['hyp']} has {len(hyps)} sentences but {opts['gold']} has {len(pairs)}"
        )
    return hyps, pairs


def _train_recipe(opts: dict, pairs) -> tuple[TrainStage, ModelConfig]:
    """The training stage and model shape that the shared training options set."""
    stage = TrainStage(
        pairs=tuple(pairs),
        epochs=opts["epochs"],
        lr=opts["lr"],
        loss=opts.get("loss", PLAIN_CE),
        batch_size=opts["batch_size"],
        optimizer=opts["optimizer"],
    )
    config = ModelConfig(
        embed_dim=opts["embed_dim"], hidden_dim=opts["hidden_dim"], seed=opts["seed"]
    )
    return stage, config


def _load_judge(opts: dict) -> JudgeModel | None:
    return JudgeModel.load(opts["judge"]) if opts.get("judge") else None


def _judge_report(counts) -> tuple[dict, str]:
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

# A runner checks its options and builds its config objects, then calls
# start() once: it makes the output directory, writes the config snapshot
# and returns the directory. So nothing is written for a rejected value.
_Start = Callable[[], Path]


def _run_synth_gen(opts: dict, start: _Start) -> list[str]:
    grammar, spec = make_preset(opts["preset"])
    sizes = SizeConfig(
        gec_train=opts["gec_train"],
        gec_dev=opts["gec_dev"],
        gec_test=opts["gec_test"],
        cola_pairs=opts["cola_pairs"],
    )
    out = start()
    benchmark = make_benchmark(grammar, spec, sizes, seed=opts["seed"])
    paths = write_benchmark(benchmark, out)
    return [f"wrote benchmark {opts['preset']!r} to {out} ({len(paths)} entries)"]


def _run_extract_edits(opts: dict, start: _Start) -> list[str]:
    out = start()
    sources = _read_sentences(opts["source"])
    targets = _read_sentences(opts["target"])
    if len(sources) != len(targets):
        raise ConfigError(
            f"{opts['source']} has {len(sources)} sentences"
            f" but {opts['target']} has {len(targets)}"
        )
    lexicons = _load_lexicons(opts)
    pairs = [
        AnnotatedPair(
            source=src,
            target=tgt,
            gold=(tuple(extract_edits(src, tgt, lexicons)),),
            annotator_ids=(0,),
        )
        for src, tgt in zip(sources, targets)
    ]
    (out / "edits.m2").write_text(emit_m2(pairs), encoding="utf-8")
    n_edits = sum(len(pair.gold[0]) for pair in pairs)
    return [f"wrote {out / 'edits.m2'} ({len(pairs)} sentences, {n_edits} edits)"]


def _run_build_cola(opts: dict, start: _Start) -> list[str]:
    filters = FilterConfig(opts["min_len"], opts["max_len"], opts["max_edits"])
    # M2 input yields only GEC-origin instances, which never enter test.
    split = SplitConfig(dev=opts["dev_frac"], test=0.0)
    out = start()
    parts = {}
    for path in opts["m2"]:
        pairs = parse_m2(_read_text(path), name=path)
        parts[path] = build_cola_from_gec(pairs, filters)
    corpus = merge_corpora(
        parts,
        split,
        seed=opts["seed"],
        dedupe=not opts["no_dedupe"],
        balance=bool(opts["balance"]),
    )
    for name in ("train", "dev"):
        (out / f"cola_{name}.tsv").write_text(
            emit_cola_tsv(corpus.split(name)), encoding="utf-8"
        )
    write_json(out / "cola_stats.json", {"meta": corpus.meta, "stats": corpus_stats(corpus)})
    return [f"wrote cola splits to {out} ({len(corpus)} instances)"]


def _run_train_judge(opts: dict, start: _Start) -> list[str]:
    config = JudgeConfig(
        dim=opts["dim"],
        epochs=opts["epochs"],
        lr=opts["lr"],
        l2=opts["l2"],
        batch_size=opts["batch_size"],
        seed=opts["seed"],
    )
    out = start()
    train = parse_cola_tsv(_read_text(opts["train"]), name=opts["train"])
    dev = parse_cola_tsv(_read_text(opts["dev"]), name=opts["dev"])
    model = train_judge(train, dev, config)
    model.save(out / "judge.json")
    data, text = _judge_report(evaluate_judge(model, dev))
    write_json(out / "judge_metrics.json", data)
    (out / "judge_metrics.txt").write_text(text, encoding="utf-8")
    return [
        f"wrote {out / 'judge.json'}",
        f"dev accuracy {data['accuracy']:.4f}, mcc {data['mcc']:.4f}",
    ]


def _run_judge_eval(opts: dict, start: _Start) -> list[str]:
    out = start()
    model = JudgeModel.load(opts["model"])
    instances = parse_cola_tsv(_read_text(opts["data"]), name=opts["data"])
    data, text = _judge_report(evaluate_judge(model, instances))
    write_json(out / "judge_eval.json", data)
    (out / "judge_eval.txt").write_text(text, encoding="utf-8")
    return [f"accuracy {data['accuracy']:.4f}, mcc {data['mcc']:.4f} on {data['total']} instances"]


def _run_train_gec(opts: dict, start: _Start) -> list[str]:
    if opts["loss"] == DYNAMIC and not opts["judge"]:
        raise ConfigError("train-gec: the dynamic loss needs option 'judge'")
    pairs = parse_m2(_read_text(opts["train"]), name=opts["train"])
    stage, config = _train_recipe(opts, pairs)
    vocab = Vocab.from_pairs(pairs)
    _param_shapes(len(vocab), config)
    out = start()
    dev_pairs = None
    if opts["dev"]:
        dev_pairs = parse_m2(_read_text(opts["dev"]), name=opts["dev"])
    judge = _load_judge(opts)
    model = Seq2SeqModel(vocab, config)
    log = train_gec(model, stage, judge=judge, dev_pairs=dev_pairs, seed=opts["seed"])
    model.save(out / "gec_model")
    log.write(out / "train_log.jsonl")
    last = log.last()
    lines = [f"wrote {out / 'gec_model'} ({model.num_params()} parameters)"]
    if last.dev_f05 is None:
        lines.append(f"final mean loss {last.mean_loss:.4f}")
    else:
        lines.append(f"final mean loss {last.mean_loss:.4f}, dev F0.5 {last.dev_f05:.4f}")
    return lines


def _run_decode(opts: dict, start: _Start) -> list[str]:
    if opts["beam"] < 1:
        raise ConfigError(f"decode: beam_size must be >= 1, got {opts['beam']}")
    if opts["judge"] and opts["rerank_lam"] < 0:
        raise ConfigError(f"decode: rerank_lam must be >= 0, got {opts['rerank_lam']}")
    out = start()
    model = Seq2SeqModel.load(opts["model"])
    sources = _read_sentences(opts["input"])
    decoded = decode(model, sources, opts["beam"], _load_judge(opts), opts["rerank_lam"])
    _write_sentences(out / "corrected.txt", decoded)
    return [f"wrote {out / 'corrected.txt'} ({len(decoded)} sentences)"]


def _run_evaluate(opts: dict, start: _Start) -> list[str]:
    out = start()
    hyps, pairs = _read_hypotheses(opts)
    report = evaluate_hypotheses(hyps, pairs, _load_lexicons(opts))
    write_json(out / "evaluate.json", report.to_json_dict())
    (out / "evaluate.txt").write_text(report.render_table(), encoding="utf-8")
    d = report.to_json_dict()
    return [f"P {d['precision']:.2f}  R {d['recall']:.2f}  F0.5 {d['f0.5']:.2f}"]


def _run_error_analysis(opts: dict, start: _Start) -> list[str]:
    for etype in opts["types"]:
        if etype not in CORE_ERROR_TYPES:
            raise ConfigError(
                f"error-analysis: unknown error type {etype!r} in 'types'"
                f" (known: {', '.join(CORE_ERROR_TYPES)})"
            )
    out = start()
    hyps, pairs = _read_hypotheses(opts)
    lexicons = _load_lexicons(opts)
    hyp_edits = [extract_edits(pair.source, hyp, lexicons) for hyp, pair in zip(hyps, pairs)]
    sections: dict[str, MetricsReport] = {"unfiltered": evaluate_corpus(hyp_edits, pairs)}
    for etype in opts["types"]:
        sections[f"no_{etype}"] = filter_eval(
            hyp_edits, pairs, {etype}, mode=opts["filter_mode"]
        )
    if len(opts["types"]) > 1:
        combined = "no_" + "_".join(opts["types"])
        sections[combined] = filter_eval(
            hyp_edits, pairs, set(opts["types"]), mode=opts["filter_mode"]
        )
    data = {name: report.to_json_dict() for name, report in sections.items()}
    write_json(out / "error_analysis.json", data)
    table = prf_table("analysis", list(sections.items()))
    (out / "error_analysis.txt").write_text(table, encoding="utf-8")
    return table.splitlines()


def _run_ablate(opts: dict, start: _Start) -> list[str]:
    if not opts.get("judge"):
        raise ConfigError(
            "ablate: missing required option 'judge'"
            " (the variant grid includes dynamic-loss and reranking rows)"
        )
    rerank = {"rerank": True, "beam_size": opts["beam"], "rerank_lam": opts["rerank_lam"]}
    variants = (
        AblationVariant("plain_ce", loss=PLAIN_CE),
        AblationVariant("dynamic", loss=DYNAMIC),
        AblationVariant("plain_ce+rerank", loss=PLAIN_CE, **rerank),
        AblationVariant("dynamic+rerank", loss=DYNAMIC, **rerank),
    )
    train_pairs = parse_m2(_read_text(opts["train"]), name=opts["train"])
    stage, config = _train_recipe(opts, train_pairs)
    vocab_size = len(Vocab.from_pairs(train_pairs))
    _param_shapes(vocab_size, config)
    check_beam_size(opts["beam"], vocab_size)
    out = start()
    test_pairs = parse_m2(_read_text(opts["test"]), name=opts["test"])
    judge = _load_judge(opts)
    report = ablation_run(variants, stage, test_pairs, config, judge=judge, seeds=opts["seeds"])
    write_json(out / "ablation.json", report.to_json_dict())
    (out / "ablation.txt").write_text(report.render_table(), encoding="utf-8")
    return report.render_table().splitlines()


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    help: str
    opts: dict
    run: Callable[[dict, _Start], list[str]]


_LEXICONS_OPT = _Opt("str", None, "lexicon directory for edit classification")
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
    "rerank_lam": _Opt("float", 0.5, "judge penalty weight while reranking"),
}

_COMMANDS: dict[str, _Command] = {
    "synth-gen": _Command(
        "generate a synthetic benchmark from a grammar preset",
        {
            "preset": _Opt("str", "mix_a", "grammar preset", choices=PRESETS),
            "gec_train": _Opt("int", 2000, "correction training pairs"),
            "gec_dev": _Opt("int", 300, "correction dev pairs"),
            "gec_test": _Opt("int", 500, "correction test pairs"),
            "cola_pairs": _Opt("int", 10000, "acceptability sentence pairs"),
        },
        _run_synth_gen,
    ),
    "extract-edits": _Command(
        "align parallel text files and emit typed edits as M2",
        {
            "source": _Opt("str", None, "source sentences, one per line", required=True),
            "target": _Opt("str", None, "corrected sentences, one per line", required=True),
            "lexicons": _LEXICONS_OPT,
        },
        _run_extract_edits,
    ),
    "build-cola": _Command(
        "mine labeled acceptability train/dev splits from M2 correction data",
        {
            "m2": _Opt("paths", None, "M2 file (repeatable)", required=True),
            "min_len": _Opt("int", 3, "minimum source length"),
            "max_len": _Opt("int", 80, "maximum source length"),
            "max_edits": _Opt("int", 10, "maximum edits per pair"),
            "dev_frac": _Opt("float", 0.1, "dev split fraction; train takes the rest"),
            "balance": _Opt("bool", False, "downsample the majority label"),
            "no_dedupe": _Opt("bool", False, "keep exact duplicate sentences"),
        },
        _run_build_cola,
    ),
    "train-judge": _Command(
        "fit the acceptability judge on labeled TSV splits",
        {
            "train": _Opt("str", None, "training TSV (label<TAB>sentence)", required=True),
            "dev": _Opt("str", None, "dev TSV for the frozen accuracy", required=True),
            "dim": _Opt("int", 2**18, "hashed feature dimension"),
            "epochs": _Opt("int", 80, "training epochs"),
            "lr": _Opt("float", 8.0, "learning rate"),
            "l2": _Opt("float", 1e-6, "L2 penalty"),
            "batch_size": _Opt("int", 64, "minibatch size"),
        },
        _run_train_judge,
    ),
    "judge-eval": _Command(
        "score a saved judge on a labeled TSV",
        {
            "model": _Opt("str", None, "saved judge JSON", required=True),
            "data": _Opt("str", None, "labeled TSV to score", required=True),
        },
        _run_judge_eval,
    ),
    "train-gec": _Command(
        "train the corrector on an M2 file",
        {
            "train": _Opt("str", None, "training M2", required=True),
            "dev": _Opt("str", None, "dev M2 for per-epoch F0.5"),
            "judge": _Opt("str", None, "saved judge JSON (required for the dynamic loss)"),
            "loss": _Opt("str", PLAIN_CE, "training loss", choices=LOSS_KINDS),
            **_TRAIN_OPTS,
        },
        _run_train_gec,
    ),
    "decode": _Command(
        "correct sentences with a saved model, optionally judge-reranked",
        {
            "model": _Opt("str", None, "saved model directory", required=True),
            "input": _Opt("str", None, "sentences to correct, one per line", required=True),
            "judge": _Opt("str", None, "saved judge JSON; enables beam reranking"),
            **_BEAM_OPTS,
        },
        _run_decode,
    ),
    "evaluate": _Command(
        "score corrected text against gold M2",
        {
            "hyp": _Opt("str", None, "corrected sentences, one per line", required=True),
            "gold": _Opt("str", None, "gold M2", required=True),
            "lexicons": _LEXICONS_OPT,
        },
        _run_evaluate,
    ),
    "error-analysis": _Command(
        "rescore with error types excluded individually and combined",
        {
            "hyp": _Opt("str", None, "corrected sentences, one per line", required=True),
            "gold": _Opt("str", None, "gold M2", required=True),
            "types": _Opt("names", ("PUNCT", "OTHER"), "error types to exclude"),
            "filter_mode": _Opt("str", DROP_EDITS, "exclusion mode", choices=FILTER_MODES),
            "lexicons": _LEXICONS_OPT,
        },
        _run_error_analysis,
    ),
    "ablate": _Command(
        "train and score the four-variant grid over fixed seeds",
        {
            "train": _Opt("str", None, "training M2", required=True),
            "test": _Opt("str", None, "test M2", required=True),
            "judge": _Opt("str", None, "saved judge JSON", required=True),
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
        elif opt.kind == "paths":
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
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
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
        if raw is not None:
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
    if resolved["seed"] < 0:
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
        summary = _COMMANDS[command].run(opts, start)
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
