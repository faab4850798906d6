"""Edit-level scoring of corrections against multi-annotator references.

Hypothesis edits are matched to gold edits by span and replacement,
ignoring their type, as the M2 scorer and ERRANT do. Each sentence is
scored against every annotator and keeps the one maximizing
sentence-level F0.5, so systems are never penalized for following a
legitimate alternative reference.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .align import LexiconSet, extract_edits
from .errors import ConfigError, EmptyEvaluation
from .textcore import DROP_EDITS, DROP_SENTENCES, FILTER_MODES, AnnotatedPair, Edit, Sentence


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


# F-beta's beta: 0.5, so precision counts twice as much as recall (F0.5).
BETA = 0.5


def fbeta(precision: float, recall: float) -> float:
    """Weighted harmonic mean at BETA; 0 whenever the denominator vanishes."""
    num = (1.0 + BETA * BETA) * precision * recall
    den = BETA * BETA * precision + recall
    return num / den if den > 0 else 0.0


def prf(counts: MatchCounts) -> Prf:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return Prf(p, r, fbeta(p, r))


def _edit_key(edit: Edit) -> tuple:
    return (edit.start, edit.end, edit.replacement)


def _match(hyp: Sequence[Edit], gold: Sequence[Edit]) -> list[int | None]:
    """For each gold edit, the index of the hypothesis edit it matches, or None.

    Edits match on span and replacement; the type is ignored. Each gold
    edit takes the lowest-index unmatched hypothesis edit with its key.
    """
    unmatched: dict[tuple, list[int]] = {}
    for idx in reversed(range(len(hyp))):
        unmatched.setdefault(_edit_key(hyp[idx]), []).append(idx)
    matches = []
    for edit in gold:
        free = unmatched.get(_edit_key(edit))
        matches.append(free.pop() if free else None)
    return matches


def _counts(hyp: Sequence[Edit], matches: list[int | None]) -> MatchCounts:
    misses = matches.count(None)
    tp = len(matches) - misses
    return MatchCounts(tp, len(hyp) - tp, misses)


def _best_reference(
    hyp: Sequence[Edit], pair: AnnotatedPair
) -> tuple[int | None, tuple[Edit, ...], list[int | None]]:
    """The annotator that flatters hyp most, with its edits and their matches."""
    best: tuple[int | None, tuple[Edit, ...], list[int | None]] = (None, (), [])
    best_f = -1.0
    for aid, gold in sorted(zip(pair.annotator_ids, pair.gold)):
        matches = _match(hyp, gold)
        f = prf(_counts(hyp, matches)).f05
        if f > best_f:
            best, best_f = (aid, gold, matches), f
    return best


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Corpus-level scores on the unit scale; render with x100 and 2dp."""

    counts: MatchCounts
    precision: float
    recall: float
    f05: float
    per_type: Mapping[str, MatchCounts] = field(default_factory=dict)
    n_sentences: int = 0

    def to_json_dict(self) -> dict:
        gold_total = sum(t.tp + t.fn for t in self.per_type.values())
        per_type = {}
        for etype in sorted(self.per_type):
            t = self.per_type[etype]
            share = 100.0 * (t.tp + t.fn) / gold_total if gold_total else 0.0
            per_type[etype] = {
                "tp": t.tp,
                "fp": t.fp,
                "fn": t.fn,
                "gold_total": t.tp + t.fn,
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
    hyp_edits: Sequence[Sequence[Edit]], pairs: Sequence[AnnotatedPair]
) -> MetricsReport:
    """Aggregate edit-level scores over aligned hypothesis/reference lists.

    Per-type counts come from each sentence's chosen annotator: a gold
    edit is a tp or fn of its own type, an unmatched hypothesis edit an
    fp of its type.
    """
    if len(hyp_edits) != len(pairs):
        raise ConfigError(f"{len(hyp_edits)} hypothesis lists for {len(pairs)} references")
    total = MatchCounts()
    per_type: dict[str, list[int]] = {}  # etype -> [tp, fp, fn]
    for hyp, pair in zip(hyp_edits, pairs):
        _, gold, matches = _best_reference(hyp, pair)
        total = total + _counts(hyp, matches)
        for edit, idx in zip(gold, matches):
            per_type.setdefault(edit.etype, [0, 0, 0])[0 if idx is not None else 2] += 1
        matched = set(matches)
        for idx, edit in enumerate(hyp):
            if idx not in matched:
                per_type.setdefault(edit.etype, [0, 0, 0])[1] += 1
    scores = prf(total)
    return MetricsReport(
        counts=total,
        precision=scores.precision,
        recall=scores.recall,
        f05=scores.f05,
        per_type={etype: MatchCounts(*c) for etype, c in per_type.items()},
        n_sentences=len(pairs),
    )


def evaluate_hypotheses(
    hypotheses: Sequence[Sentence],
    pairs: Sequence[AnnotatedPair],
    lexicons: LexiconSet | None = None,
) -> MetricsReport:
    """Extract edits from corrected sentences, then score them."""
    if len(hypotheses) != len(pairs):
        raise ConfigError(f"{len(hypotheses)} hypotheses for {len(pairs)} references")
    hyp_edits = [extract_edits(pair.source, hyp, lexicons) for hyp, pair in zip(hypotheses, pairs)]
    return evaluate_corpus(hyp_edits, pairs)


def _observed_types(pairs: Sequence[AnnotatedPair]) -> set[str]:
    return {edit.etype for pair in pairs for edits in pair.gold for edit in edits}


def filter_eval(
    hyp_edits: Sequence[Sequence[Edit]],
    pairs: Sequence[AnnotatedPair],
    exclude: set[str],
    mode: str = DROP_EDITS,
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
        return evaluate_corpus(kept_h, kept_p)
    filtered_h = []
    filtered_p = []
    for hyp, pair in zip(hyp_edits, pairs):
        filtered_h.append([edit for edit in hyp if edit.etype not in exclude])
        gold = tuple(
            tuple(edit for edit in edits if edit.etype not in exclude) for edits in pair.gold
        )
        filtered_p.append(
            AnnotatedPair(source=pair.source, gold=gold, annotator_ids=pair.annotator_ids)
        )
    return evaluate_corpus(filtered_h, filtered_p)


def prf_table(title: str, rows: Sequence[tuple[str, Prf | MetricsReport]]) -> str:
    """Aligned P, R and F0.5 columns in percent, one row per named score."""
    width = max(len(name) for name in (title, *(name for name, _ in rows)))
    lines = [f"{title:<{width}} {'P':>7} {'R':>7} {'F0.5':>7}"]
    for name, s in rows:
        lines.append(
            f"{name:<{width}} {100 * s.precision:>7.2f} {100 * s.recall:>7.2f} {100 * s.f05:>7.2f}"
        )
    return "\n".join(lines) + "\n"
