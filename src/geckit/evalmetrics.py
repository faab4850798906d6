"""Edit-level scoring of corrections against multi-annotator references.

Hypothesis edits are matched to gold edits by span and replacement
(optionally also by type). Each sentence is scored against every
annotator and keeps the one maximizing sentence-level F0.5, so systems
are never penalized for following a legitimate alternative reference.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from .align import ExtractConfig, extract_edits
from .errors import ConfigError, EmptyEvaluation
from .textcore import AnnotatedPair, Edit, Sentence

DROP_SENTENCES = "drop_sentences"
DROP_EDITS = "drop_edits"
FILTER_MODES = (DROP_SENTENCES, DROP_EDITS)


@dataclass(frozen=True, slots=True)
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise ConfigError("negative match counts")

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True, slots=True)
class Prf:
    precision: float
    recall: float
    f05: float


def fbeta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean; 0 whenever the denominator vanishes."""
    num = (1.0 + beta * beta) * precision * recall
    den = beta * beta * precision + recall
    return num / den if den > 0 else 0.0


def prf(counts: MatchCounts, beta: float = 0.5) -> Prf:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return Prf(p, r, fbeta(p, r, beta))


@dataclass(frozen=True, slots=True)
class MatchConfig:
    type_sensitive: bool = False
    beta: float = 0.5


def _edit_key(edit: Edit, type_sensitive: bool):
    key = (edit.start, edit.end, edit.replacement)
    return key + (edit.etype,) if type_sensitive else key


def _count_against(
    hyp: Sequence[Edit], gold: Sequence[Edit], config: MatchConfig
) -> MatchCounts:
    remaining: dict = {}
    for edit in hyp:
        key = _edit_key(edit, config.type_sensitive)
        remaining[key] = remaining.get(key, 0) + 1
    tp = 0
    for edit in gold:
        key = _edit_key(edit, config.type_sensitive)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            tp += 1
    return MatchCounts(tp, len(hyp) - tp, len(gold) - tp)


def match_sentence(
    hyp: Sequence[Edit], pair: AnnotatedPair, config: MatchConfig | None = None
) -> tuple[MatchCounts, int | None]:
    """Score one sentence, keeping the annotator that flatters it most.

    Ties go to the lower annotator id. A pair without annotators counts
    as a single empty reference.
    """
    cfg = config or MatchConfig()
    if not pair.annotator_ids:
        return _count_against(hyp, (), cfg), None
    best_counts = MatchCounts()
    best_id: int | None = None
    best_f = -1.0
    order = sorted(range(len(pair.annotator_ids)), key=lambda i: pair.annotator_ids[i])
    for i in order:
        counts = _count_against(hyp, pair.gold[i], cfg)
        f = prf(counts, cfg.beta).f05
        if f > best_f:
            best_counts, best_id, best_f = counts, pair.annotator_ids[i], f
    return best_counts, best_id


@dataclass(frozen=True, slots=True)
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    gold_total: int = 0


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Corpus-level scores on the unit scale; render with x100 and 2dp."""

    counts: MatchCounts
    precision: float
    recall: float
    f05: float
    per_type: Mapping[str, TypeCounts] = field(default_factory=dict)
    n_sentences: int = 0

    def to_json_dict(self) -> dict:
        gold_total = sum(t.gold_total for t in self.per_type.values())
        per_type = {}
        for etype in sorted(self.per_type):
            t = self.per_type[etype]
            share = 100.0 * t.gold_total / gold_total if gold_total else 0.0
            per_type[etype] = {
                "tp": t.tp,
                "fp": t.fp,
                "fn": t.fn,
                "gold_total": t.gold_total,
                "gold_share_pct": round(share, 2),
            }
        return {
            "sentences": self.n_sentences,
            "tp": self.counts.tp,
            "fp": self.counts.fp,
            "fn": self.counts.fn,
            "precision": round(100.0 * self.precision, 2),
            "recall": round(100.0 * self.recall, 2),
            "f0.5": round(100.0 * self.f05, 2),
            "per_type": per_type,
        }

    def render_table(self) -> str:
        d = self.to_json_dict()
        lines = [
            f"sentences  {d['sentences']:>8}",
            f"tp/fp/fn   {d['tp']}/{d['fp']}/{d['fn']}",
            f"precision  {d['precision']:>8.2f}",
            f"recall     {d['recall']:>8.2f}",
            f"f0.5       {d['f0.5']:>8.2f}",
        ]
        if d["per_type"]:
            lines.append("")
            lines.append(f"{'type':<8} {'share%':>7} {'tp':>6} {'fp':>6} {'fn':>6}")
            for etype, t in d["per_type"].items():
                lines.append(
                    f"{etype:<8} {t['gold_share_pct']:>7.2f} {t['tp']:>6} {t['fp']:>6} {t['fn']:>6}"
                )
        return "\n".join(lines) + "\n"


def evaluate_corpus(
    hyp_edits: Sequence[Sequence[Edit]],
    pairs: Sequence[AnnotatedPair],
    config: MatchConfig | None = None,
) -> MetricsReport:
    """Aggregate edit-level scores over aligned hypothesis/reference lists."""
    cfg = config or MatchConfig()
    if len(hyp_edits) != len(pairs):
        raise ConfigError(f"{len(hyp_edits)} hypothesis lists for {len(pairs)} references")
    total = MatchCounts()
    type_counts: dict[str, dict[str, int]] = {}

    def bucket(etype: str) -> dict[str, int]:
        return type_counts.setdefault(etype, {"tp": 0, "fp": 0, "fn": 0, "gold_total": 0})

    for hyp, pair in zip(hyp_edits, pairs):
        counts, annotator = match_sentence(hyp, pair, cfg)
        total = total + counts
        if annotator is None:
            gold: tuple[Edit, ...] = ()
        else:
            gold = pair.gold[pair.annotator_ids.index(annotator)]
        consumable: dict = {}
        for idx, edit in enumerate(hyp):
            consumable.setdefault(_edit_key(edit, cfg.type_sensitive), []).append(idx)
        matched_hyp: set[int] = set()
        for edit in gold:
            b = bucket(edit.etype)
            b["gold_total"] += 1
            queue = consumable.get(_edit_key(edit, cfg.type_sensitive))
            if queue:
                matched_hyp.add(queue.pop(0))
                b["tp"] += 1
            else:
                b["fn"] += 1
        for idx, edit in enumerate(hyp):
            if idx not in matched_hyp:
                bucket(edit.etype)["fp"] += 1
    scores = prf(total, cfg.beta)
    per_type = {
        etype: TypeCounts(c["tp"], c["fp"], c["fn"], c["gold_total"])
        for etype, c in type_counts.items()
    }
    return MetricsReport(
        counts=total,
        precision=scores.precision,
        recall=scores.recall,
        f05=scores.f05,
        per_type=per_type,
        n_sentences=len(pairs),
    )


def evaluate_hypotheses(
    hypotheses: Sequence[Sentence],
    pairs: Sequence[AnnotatedPair],
    extract_config: ExtractConfig | None = None,
    match_config: MatchConfig | None = None,
) -> MetricsReport:
    """Extract edits from corrected sentences, then score them."""
    if len(hypotheses) != len(pairs):
        raise ConfigError(f"{len(hypotheses)} hypotheses for {len(pairs)} references")
    ecfg = extract_config or ExtractConfig()
    hyp_edits = [extract_edits(pair.source, hyp, ecfg) for hyp, pair in zip(hypotheses, pairs)]
    return evaluate_corpus(hyp_edits, pairs, match_config)


def per_type_breakdown(pairs: Sequence[AnnotatedPair]) -> dict[str, float]:
    """Percentage of canonical gold edits per type; sums to 100."""
    counts: dict[str, int] = {}
    total = 0
    for pair in pairs:
        for edit in pair.canonical_edits:
            counts[edit.etype] = counts.get(edit.etype, 0) + 1
            total += 1
    if total == 0:
        raise EmptyEvaluation("no gold edits in the corpus")
    return {etype: 100.0 * n / total for etype, n in sorted(counts.items())}


def _observed_types(pairs: Sequence[AnnotatedPair]) -> set[str]:
    return {edit.etype for pair in pairs for edits in pair.gold for edit in edits}


def filter_eval(
    hyp_edits: Sequence[Sequence[Edit]],
    pairs: Sequence[AnnotatedPair],
    exclude: set[str],
    mode: str = DROP_EDITS,
    config: MatchConfig | None = None,
) -> MetricsReport:
    """Rescore with some error types excluded.

    drop_sentences removes any sentence where some annotator used an
    excluded type. drop_edits keeps all sentences but removes excluded
    gold edits and hypothesis edits classified as an excluded type.
    """
    if mode not in FILTER_MODES:
        raise ConfigError(f"unknown filter mode {mode!r}")
    if len(hyp_edits) != len(pairs):
        raise ConfigError(f"{len(hyp_edits)} hypothesis lists for {len(pairs)} references")
    observed = _observed_types(pairs)
    if not observed or observed <= exclude:
        raise EmptyEvaluation(f"excluding {sorted(exclude)} leaves no gold edits")
    if mode == DROP_SENTENCES:
        kept_h = []
        kept_p = []
        for hyp, pair in zip(hyp_edits, pairs):
            if any(edit.etype in exclude for edits in pair.gold for edit in edits):
                continue
            kept_h.append(hyp)
            kept_p.append(pair)
        return evaluate_corpus(kept_h, kept_p, config)
    filtered_h = []
    filtered_p = []
    for hyp, pair in zip(hyp_edits, pairs):
        filtered_h.append([edit for edit in hyp if edit.etype not in exclude])
        gold = tuple(
            tuple(edit for edit in edits if edit.etype not in exclude) for edits in pair.gold
        )
        filtered_p.append(
            AnnotatedPair(
                source=pair.source,
                target=None,
                gold=gold,
                annotator_ids=pair.annotator_ids,
            )
        )
    return evaluate_corpus(filtered_h, filtered_p, config)


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
        if self.rerank_lam < 0:
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
        width = max(len(name) for name in ("variant", *self.variants))
        lines = [f"{'variant':<{width}} {'P':>7} {'R':>7} {'F0.5':>7}"]
        for name in self.variants:
            m = self.means[name]
            lines.append(
                f"{name:<{width}} {100 * m.precision:>7.2f}"
                f" {100 * m.recall:>7.2f} {100 * m.f05:>7.2f}"
            )
        return "\n".join(lines) + "\n"


def ablation_run(
    variants: Sequence[AblationVariant],
    stage,
    test_pairs: Sequence[AnnotatedPair],
    model_config=None,
    judge=None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    extract_config: ExtractConfig | None = None,
    match_config: MatchConfig | None = None,
) -> AblationReport:
    """Train and score every variant over the seed list.

    stage is a TrainStage carrying the shared training pairs and
    optimization settings; its name and loss are replaced per loss.
    Variants differ in training only by their loss, so for each seed
    one model is trained per distinct loss, and every variant with that
    loss decodes the test sources from it (greedy, or beam search
    reranked by the judge) and scores the result. Decoding leaves the
    model unchanged, so this equals a fresh model per (variant, seed)
    cell. Reported cells are means over seeds; the per-seed values are
    kept so the means can be recomputed.
    """
    # Imported here because the trainer itself imports this module.
    from .gec import (
        DYNAMIC,
        ModelConfig,
        Seq2SeqModel,
        Vocab,
        beam_decode,
        greedy_decode_batch,
        rerank_with_cola,
        train_gec,
    )

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
    train_sentences = [p.source for p in stage.pairs]
    train_sentences += [p.target for p in stage.pairs if p.target is not None]
    vocab = Vocab.from_sentences(train_sentences)
    sources = [pair.source for pair in test_pairs]
    mode = sources[0].mode
    losses = list(dict.fromkeys(v.loss for v in variants))
    scores: dict[str, list[Prf]] = {name: [] for name in names}
    for seed in seeds:
        for loss in losses:
            model = Seq2SeqModel(vocab, replace(base_config, seed=seed))
            train_gec(model, [replace(stage, name=loss, loss=loss)], judge=judge, seed=seed)
            for variant in variants:
                if variant.loss != loss:
                    continue
                if variant.rerank:
                    decoded = [
                        rerank_with_cola(
                            beam_decode(model, src, variant.beam_size),
                            judge,
                            variant.rerank_lam,
                            mode,
                        )
                        for src in sources
                    ]
                else:
                    decoded = greedy_decode_batch(model, sources)
                report = evaluate_hypotheses(
                    decoded, list(test_pairs), extract_config, match_config
                )
                scores[variant.name].append(Prf(report.precision, report.recall, report.f05))
            # Free this model before the next one is built, so one is alive at a time.
            del model
    per_seed = {name: tuple(values) for name, values in scores.items()}
    means = {name: mean_prf(per_seed[name]) for name in names}
    return AblationReport(tuple(names), tuple(seeds), per_seed, means)
