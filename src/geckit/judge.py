"""Binary acceptability judge over hashed character n-gram features.

The model is a regularized logistic regression scoring sentences as
acceptable (label 1) or not (label 0). It exposes a logit pair per
sentence; the acceptability score collapses the pair through a sigmoid
of ``logit0 - logit1``, so a HIGH score means the sentence looks wrong.
"""

from __future__ import annotations

import json
import math
import zlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    ConfigError,
    DegenerateCorpus,
    EmptyEvaluation,
    FormatError,
    InvalidLogits,
    MissingLogits,
)
from .textcore import ColaInstance, Sentence

_SCORE_FLOOR = 1e-300
_SCORE_CEIL = math.nextafter(1.0, 0.0)
# Start/end of text marks so boundary n-grams exist even for "".
_BOS_MARK = "\x02"
_EOS_MARK = "\x03"

MODEL_FORMAT = "acceptability-judge"
MODEL_VERSION = 1


@dataclass(frozen=True, slots=True)
class Logits:
    """Raw two-class scores: index 0 unacceptable, index 1 acceptable."""

    logit0: float
    logit1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.logit0) and math.isfinite(self.logit1)):
            raise InvalidLogits(f"non-finite logits ({self.logit0}, {self.logit1})")


@dataclass(frozen=True, slots=True)
class ColaScore:
    """Sigmoid-collapsed acceptability score in (0, 1); high means wrong."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 1.0):
            raise InvalidLogits(f"score outside (0, 1): {self.value}")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def cola_score(logits: Logits) -> ColaScore:
    """Collapse a logit pair into sigmoid(logit0 - logit1).

    The complement identity cola_score(a, b) + cola_score(b, a) == 1 holds
    to floating-point accuracy, and equal logits give exactly 0.5.
    """
    value = _sigmoid(logits.logit0 - logits.logit1)
    return ColaScore(min(max(value, _SCORE_FLOOR), _SCORE_CEIL))


# --- feature hashing ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JudgeConfig:
    dim: int = 2**18
    ngram_min: int = 1
    ngram_max: int = 4
    epochs: int = 80
    lr: float = 8.0
    l2: float = 1e-6
    batch_size: int | None = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 4:
            raise ConfigError(f"hash dimension too small: {self.dim}")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ConfigError(f"bad n-gram range ({self.ngram_min}, {self.ngram_max})")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def _feature_counts(text: str, dim: int, ngram_min: int, ngram_max: int) -> dict[int, float]:
    padded = _BOS_MARK + text + _EOS_MARK
    counts: dict[int, float] = {}
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(padded) - n + 1):
            idx = zlib.crc32(padded[i : i + n].encode("utf-8")) % dim
            counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def featurize(
    sentences: Sequence[Sentence], dim: int, ngram_min: int = 1, ngram_max: int = 4
) -> sparse.csr_matrix:
    """Hashed n-gram count rows, each L2-normalized."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for sentence in sentences:
        counts = _feature_counts(sentence.text, dim, ngram_min, ngram_max)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        for idx in sorted(counts):
            indices.append(idx)
            data.append(counts[idx] / norm)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(sentences), dim),
    )


# --- training -------------------------------------------------------------


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(
    w: np.ndarray, b0: float, b1: float, x: sparse.csr_matrix, y: np.ndarray, l2: float
) -> float:
    """Mean logistic cross-entropy plus (l2 / 2) * ||w||^2, biases unpenalized."""
    d = x @ w + (b1 - b0)
    # log(1 + exp(-d)) + (1 - y) * d, computed stably.
    per = np.logaddexp(0.0, -d) + (1.0 - y) * d
    return float(per.mean() + 0.5 * l2 * float(w @ w))


def logistic_grad(
    w: np.ndarray, b0: float, b1: float, x: sparse.csr_matrix, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float, float]:
    d = x @ w + (b1 - b0)
    g = _sigmoid_vec(d) - y
    gw = (x.T @ g) / len(y) + l2 * w
    gb = float(g.mean())
    return gw, -gb, gb


_INT_KEYS = ("dim", "ngram_min", "ngram_max", "seed", "epochs")
_REQUIRED_KEYS = (*_INT_KEYS, "bias0", "bias1", "dev_accuracy", "weight_indices", "weight_values")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass
class JudgeModel:
    """Trained judge: hashed-feature weight vector plus a bias pair.

    ``dev_accuracy`` is measured once on the dev split at the end of
    training and never updated afterwards; downstream loss weighting
    reads it from here.
    """

    weights: np.ndarray
    bias0: float
    bias1: float
    dim: int
    ngram_min: int = 1
    ngram_max: int = 4
    seed: int = 0
    epochs: int = 0
    dev_accuracy: float | None = None
    train_loss: float | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.dim,):
            raise ConfigError(f"weights shape {self.weights.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(self.weights)):
            raise InvalidLogits("non-finite weights")

    def margin(self, sentence: Sentence) -> float:
        counts = _feature_counts(sentence.text, self.dim, self.ngram_min, self.ngram_max)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        return sum(self.weights[i] * v for i, v in counts.items()) / norm

    def logits(self, sentence: Sentence) -> Logits:
        return Logits(self.bias0, self.margin(sentence) + self.bias1)

    def score(self, sentence: Sentence) -> ColaScore:
        return cola_score(self.logits(sentence))

    def save(self, path: str | Path) -> None:
        nz = np.flatnonzero(self.weights)
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "dim": self.dim,
            "ngram_min": self.ngram_min,
            "ngram_max": self.ngram_max,
            "bias0": self.bias0,
            "bias1": self.bias1,
            "seed": self.seed,
            "epochs": self.epochs,
            "dev_accuracy": self.dev_accuracy,
            "train_loss": self.train_loss,
            "weight_indices": [int(i) for i in nz],
            "weight_values": [float(v) for v in self.weights[nz]],
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "JudgeModel":
        name = str(path)
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError("not a JSON model file", name=name, line=exc.lineno) from exc
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise FormatError("unrecognized model format", name=name)
        if payload.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {payload.get('version')}", name=name)
        missing = [key for key in _REQUIRED_KEYS if key not in payload]
        if missing:
            raise FormatError(f"missing keys {missing}", name=name)
        bad = [key for key in _INT_KEYS if not _is_int(payload[key])]
        bad += [key for key in ("bias0", "bias1") if not _is_number(payload[key])]
        bad += [
            key
            for key in ("dev_accuracy", "train_loss")
            if payload.get(key) is not None and not _is_number(payload[key])
        ]
        if bad:
            raise FormatError(f"bad values for {bad}", name=name)
        dim = payload["dim"]
        if dim < 1 or not (1 <= payload["ngram_min"] <= payload["ngram_max"]):
            raise FormatError(f"bad dim {dim} or n-gram range", name=name)
        try:
            indices = np.asarray(payload["weight_indices"])
            values = np.asarray(payload["weight_values"])
        except ValueError as exc:
            raise FormatError(f"bad weight lists: {exc}", name=name) from exc
        if indices.ndim != 1 or indices.shape != values.shape:
            raise FormatError(
                "weight_indices and weight_values must be flat lists of equal length", name=name
            )
        weights = np.zeros(dim)
        if indices.size:
            if indices.dtype.kind not in "iu" or values.dtype.kind not in "iuf":
                raise FormatError("weight entries must be numbers", name=name)
            if indices[0] < 0 or indices[-1] >= dim or np.any(np.diff(indices) <= 0):
                raise FormatError(
                    f"weight_indices must increase strictly within [0, {dim})", name=name
                )
            weights[indices] = values
        return cls(
            weights=weights,
            bias0=payload["bias0"],
            bias1=payload["bias1"],
            dim=dim,
            ngram_min=payload["ngram_min"],
            ngram_max=payload["ngram_max"],
            seed=payload["seed"],
            epochs=payload["epochs"],
            dev_accuracy=payload["dev_accuracy"],
            train_loss=payload.get("train_loss"),
        )


def train_judge(
    train: Sequence[ColaInstance],
    dev: Sequence[ColaInstance],
    config: JudgeConfig | None = None,
) -> JudgeModel:
    """Fit the judge deterministically under config.seed.

    Full-batch mode (batch_size None) uses gradient descent with
    backtracking halving, so the training loss never increases between
    epochs. Minibatch mode shuffles with a per-epoch generator derived
    from the seed.
    """
    cfg = config or JudgeConfig()
    labels = {inst.label for inst in train}
    if len(labels) < 2:
        raise DegenerateCorpus(f"training labels {sorted(labels)} cover a single class")
    x = featurize([inst.sentence for inst in train], cfg.dim, cfg.ngram_min, cfg.ngram_max)
    y = np.array([float(inst.label) for inst in train])
    w = np.zeros(cfg.dim)
    b0 = b1 = 0.0
    if cfg.batch_size is None:
        loss = logistic_loss(w, b0, b1, x, y, cfg.l2)
        for _ in range(cfg.epochs):
            gw, gb0, gb1 = logistic_grad(w, b0, b1, x, y, cfg.l2)
            step = cfg.lr
            while step > 1e-12:
                cand = (w - step * gw, b0 - step * gb0, b1 - step * gb1)
                cand_loss = logistic_loss(*cand, x, y, cfg.l2)
                if cand_loss <= loss:
                    w, b0, b1 = cand
                    loss = cand_loss
                    break
                step /= 2.0
    else:
        n = len(train)
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                gw, gb0, gb1 = logistic_grad(w, b0, b1, x[batch], y[batch], cfg.l2)
                w -= cfg.lr * gw
                b0 -= cfg.lr * gb0
                b1 -= cfg.lr * gb1
        loss = logistic_loss(w, b0, b1, x, y, cfg.l2)
    model = JudgeModel(
        weights=w,
        bias0=b0,
        bias1=b1,
        dim=cfg.dim,
        ngram_min=cfg.ngram_min,
        ngram_max=cfg.ngram_max,
        seed=cfg.seed,
        epochs=cfg.epochs,
        train_loss=loss,
    )
    model.dev_accuracy = acc(evaluate_judge(model, dev))
    return model


# --- evaluation -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    """Binary confusion counts with label 1 as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise EmptyEvaluation(f"negative count {name}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def evaluate_judge(model: JudgeModel | "LogitsAdapter", instances: Sequence[ColaInstance]) -> ConfusionCounts:
    tp = fp = fn = tn = 0
    for inst in instances:
        lg = model.logits(inst.sentence)
        pred = 1 if lg.logit1 > lg.logit0 else 0
        if pred == 1 and inst.label == 1:
            tp += 1
        elif pred == 1:
            fp += 1
        elif inst.label == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


def acc(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise EmptyEvaluation("no predictions to score")
    return (counts.tp + counts.tn) / counts.total


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation; a zero denominator scores 0 by convention."""
    if counts.total == 0:
        raise EmptyEvaluation("no predictions to score")
    num = counts.tp * counts.tn - counts.fp * counts.fn
    den = math.sqrt(
        (counts.tp + counts.fp)
        * (counts.tp + counts.fn)
        * (counts.tn + counts.fp)
        * (counts.tn + counts.fn)
    )
    if den == 0:
        return 0.0
    return num / den


# --- external logit tables --------------------------------------------------


class LogitsAdapter:
    """Serves logits for sentences from a precomputed table.

    Lets externally scored sentences flow through the same scoring and
    loss-weighting paths as a trained judge.
    """

    def __init__(self, table: Mapping[str, Logits], dev_accuracy: float | None = None):
        self.table = dict(table)
        self.dev_accuracy = dev_accuracy

    @classmethod
    def from_tsv(
        cls, text: str, name: str = "<logits>", dev_accuracy: float | None = None
    ) -> "LogitsAdapter":
        table: dict[str, Logits] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line:
                raise FormatError("blank line in logits table", name=name, line=lineno)
            fields = line.split("\t")
            if len(fields) != 3:
                raise FormatError(
                    f"expected sentence<TAB>logit0<TAB>logit1, got {len(fields)} fields",
                    name=name,
                    line=lineno,
                )
            key, raw0, raw1 = fields
            if key in table:
                raise FormatError(f"duplicate sentence {key!r}", name=name, line=lineno)
            try:
                table[key] = Logits(float(raw0), float(raw1))
            except ValueError as exc:
                raise FormatError(f"bad logit value: {exc}", name=name, line=lineno) from exc
            except InvalidLogits as exc:
                raise FormatError(str(exc), name=name, line=lineno) from exc
        return cls(table, dev_accuracy)

    def logits(self, sentence: Sentence) -> Logits:
        try:
            return self.table[sentence.text]
        except KeyError:
            raise MissingLogits(f"no logits recorded for {sentence.text!r}") from None

    def score(self, sentence: Sentence) -> ColaScore:
        return cola_score(self.logits(sentence))


def emit_logits_tsv(entries: Iterable[tuple[Sentence, Logits]]) -> str:
    lines = []
    for sentence, lg in entries:
        lines.append(f"{sentence.text}\t{lg.logit0!r}\t{lg.logit1!r}")
    return "\n".join(lines) + ("\n" if lines else "")
