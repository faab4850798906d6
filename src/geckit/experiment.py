"""The paper's ablation grid: train with each loss, decode, and score.

Each variant names a training loss and a decode-time choice (greedy, or
beam search reranked by the judge). The grid trains and scores every
variant over a seed list and reports mean P/R/F0.5 with the per-seed
values behind them. Every grid runs its (seed, loss) groups in a fork
pool, whose workers leave Ctrl-C to the parent.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from .errors import ConfigError, EmptyEvaluation
from .evalmetrics import Prf, evaluate_hypotheses, prf_table
from .gec import DYNAMIC, ModelConfig, Seq2SeqModel, TrainStage, Vocab, decode, train_gec
from .textcore import AnnotatedPair


@dataclass(frozen=True, slots=True)
class AblationVariant:
    """One system configuration: training loss plus decode-time choices.

    rerank switches decoding from greedy to beam search with
    judge-based hypothesis selection.
    """

    name: str
    loss: str = "plain_ce"
    rerank: bool = False
    beam_size: int = 4
    rerank_lam: float = 0.5

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("variant name must be non-empty")
        if self.beam_size < 1:
            raise ConfigError(f"variant {self.name!r}: beam_size must be >= 1")
        if not self.rerank_lam >= 0:
            raise ConfigError(f"variant {self.name!r}: rerank_lam must be >= 0")


def mean_prf(values: Sequence[Prf]) -> Prf:
    if not values:
        raise EmptyEvaluation("no scores to average")
    n = len(values)
    return Prf(
        sum(v.precision for v in values) / n,
        sum(v.recall for v in values) / n,
        sum(v.f05 for v in values) / n,
    )


@dataclass(frozen=True, slots=True)
class AblationReport:
    """Mean scores per variant with the per-seed values behind them."""

    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    per_seed: Mapping[str, tuple[Prf, ...]]
    means: Mapping[str, Prf]

    def to_json_dict(self) -> dict:
        out: dict = {"seeds": list(self.seeds), "variants": {}}
        for name in self.variants:
            mean = self.means[name]
            out["variants"][name] = {
                "precision": round(100.0 * mean.precision, 2),
                "recall": round(100.0 * mean.recall, 2),
                "f0.5": round(100.0 * mean.f05, 2),
                "per_seed": [
                    {
                        "seed": seed,
                        "precision": round(100.0 * v.precision, 4),
                        "recall": round(100.0 * v.recall, 4),
                        "f0.5": round(100.0 * v.f05, 4),
                    }
                    for seed, v in zip(self.seeds, self.per_seed[name])
                ],
            }
        return out

    def render_table(self) -> str:
        return prf_table("variant", [(name, self.means[name]) for name in self.variants])


# The grid's group function inside a pool worker; set only there, by the
# pool's initializer. Under fork the function and all it closes over
# (vocab, stage, judge with its memo, test pairs) reach each worker by
# inheritance: only (seed, loss) keys and Prf rows are pickled.
_group = None


def _set_group(group) -> None:
    global _group
    _group = group
    # Ctrl-C reaches the whole process group; only the parent reports it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_group(key: tuple[int, str]) -> list[Prf]:
    return _group(key)


def ablation_run(
    variants: Sequence[AblationVariant],
    stage: TrainStage,
    test_pairs: Sequence[AnnotatedPair],
    model_config: ModelConfig | None = None,
    judge=None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> AblationReport:
    """Train and score every variant over the seed list.

    stage carries the shared training pairs and optimization settings;
    each variant's loss replaces the stage's. Variants differ in training
    only by their loss, so for each seed one model is trained per
    distinct loss, and every variant with that loss decodes the test
    sources from it (greedy, or beam search reranked by the judge) and
    scores the result. Decoding leaves the model unchanged, so this
    equals a fresh model per (variant, seed) cell. Reported cells are
    means over seeds; the per-seed values are kept so the means can be
    recomputed.

    The (seed, loss) groups are independent and fully seeded, so they
    run in a fork pool, one worker per usable CPU up to the number of
    groups, and their scores are put back in seed-major order.
    """
    if len(variants) < 2:
        raise ConfigError("ablation needs at least 2 variants")
    names = [v.name for v in variants]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicated variant names: {dupes}")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be non-empty and unique")
    if not test_pairs:
        raise EmptyEvaluation("empty test set")
    needy = [v.name for v in variants if v.loss == DYNAMIC or v.rerank]
    if needy and judge is None:
        raise ConfigError(f"variants {needy} need a judge")
    base_config = model_config or ModelConfig()
    vocab = Vocab.from_pairs(stage.pairs)
    sources = [pair.source for pair in test_pairs]
    # The variants of each loss, in the order the variants are given.
    losses = dict.fromkeys(v.loss for v in variants)
    by_loss = {loss: [v for v in variants if v.loss == loss] for loss in losses}

    def group(key: tuple[int, str]) -> list[Prf]:
        """Train one model for (seed, loss) and score each variant with that loss."""
        seed, loss = key
        model = Seq2SeqModel(vocab, replace(base_config, seed=seed))
        train_gec(model, replace(stage, loss=loss), judge=judge, seed=seed)
        rows = []
        for variant in by_loss[loss]:
            if variant.rerank:
                decoded = decode(model, sources, variant.beam_size, judge, variant.rerank_lam)
            else:
                decoded = decode(model, sources)
            report = evaluate_hypotheses(decoded, list(test_pairs))
            rows.append(Prf(report.precision, report.recall, report.f05))
        return rows

    keys = [(seed, loss) for seed in seeds for loss in by_loss]
    workers = min(len(keys), len(os.sched_getaffinity(0)))
    import multiprocessing  # only here: every other subcommand runs in one process

    # Leaving the block terminates the workers, also when a group raises.
    with multiprocessing.get_context("fork").Pool(workers, _set_group, (group,)) as pool:
        results = list(pool.imap(_run_group, keys))
    scores: dict[str, list[Prf]] = {name: [] for name in names}
    for (_seed, loss), rows in zip(keys, results):
        for variant, row in zip(by_loss[loss], rows):
            scores[variant.name].append(row)
    per_seed = {name: tuple(values) for name, values in scores.items()}
    means = {name: mean_prf(per_seed[name]) for name in names}
    return AblationReport(tuple(names), tuple(seeds), per_seed, means)
