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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCorpus,
    EmptyEvaluation,
    FormatError,
    InvalidLogits,
)
from .textcore import ColaInstance, Sentence

_SCORE_FLOOR = 1e-300
_SCORE_CEIL = math.nextafter(1.0, 0.0)
# Start/end of text marks so boundary n-grams exist even for "".
_BOS_MARK = "\x02"
_EOS_MARK = "\x03"

MODEL_FORMAT = "acceptability-judge"
MODEL_VERSION = 1
# Character n-gram lengths hashed into features, inclusive.
NGRAM_MIN = 1
NGRAM_MAX = 4
# The most 8-byte elements an array can hold: numpy raises ValueError or
# OverflowError, not MemoryError, when an array's bytes exceed intp.
MAX_ARRAY_SIZE = np.iinfo(np.intp).max // 8


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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable at any magnitude.

    exp(-|x|) never overflows; each branch is the formula the scalar
    ``_sigmoid`` uses on that side of zero.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    epochs: int = 80
    lr: float = 8.0
    l2: float = 1e-6
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 4:
            raise ConfigError(f"hash dimension too small: {self.dim}")
        if self.dim > MAX_ARRAY_SIZE:
            raise ConfigError(f"hash dimension too large to allocate: {self.dim}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.l2 >= 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


# crc32 of each n-gram string seen so far. It holds the hash before
# ``% dim``, so that judges of every size share it.
_GRAM_HASHES: dict[str, int] = {}


def _feature_counts(text: str, dim: int) -> dict[int, float]:
    padded = _BOS_MARK + text + _EOS_MARK
    counts: dict[int, float] = {}
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        for i in range(len(padded) - n + 1):
            gram = padded[i : i + n]
            h = _GRAM_HASHES.get(gram)
            if h is None:
                h = _GRAM_HASHES[gram] = zlib.crc32(gram.encode("utf-8"))
            idx = h % dim
            counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


@dataclass(frozen=True, slots=True, eq=False)
class HashedRows:
    """Rows of hashed features in compressed sparse row form.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``; every other entry is 0. The
    kernels below add their terms in the order scipy's CSR and CSC
    matrix-vector products do, so that they give the same bits.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.dim

    def take(self, rows: np.ndarray) -> "HashedRows":
        """The given rows, in the given order, gathered straight from the arrays."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        # Each row's run of entries, the runs laid end to end.
        pos = np.repeat(starts - indptr[:-1], lengths)
        pos += np.arange(len(pos))
        return HashedRows(indptr, self.indices[pos], self.data[pos], self.dim)


# Rows per pass of _row_sums, so that its temporaries stay small on a whole corpus.
_ROW_BLOCK = 256


def _row_sums(x: HashedRows, w: np.ndarray) -> np.ndarray:
    """x @ w: each row's terms added left to right, starting from 0.

    That is scipy's csr_matvec order. bincount adds its weights in array
    order, so each row's run is summed in order.
    """
    n = x.shape[0]
    if n > _ROW_BLOCK:
        blocks = [np.arange(s, min(s + _ROW_BLOCK, n)) for s in range(0, n, _ROW_BLOCK)]
        return np.concatenate([_row_sums(x.take(rows), w) for rows in blocks])
    rows = np.repeat(np.arange(n), x.indptr[1:] - x.indptr[:-1])
    return np.bincount(rows, x.data * w[x.indices], minlength=n)


def _scatter(x: HashedRows, g: np.ndarray) -> np.ndarray:
    """x.T @ g: each column's terms added in row order, starting from 0.

    That is scipy's csc_matvec order on the transpose.
    """
    terms = x.data * np.repeat(g, x.indptr[1:] - x.indptr[:-1])
    return np.bincount(x.indices, terms, minlength=x.dim)


def featurize(sentences: Sequence[Sentence], dim: int) -> HashedRows:
    """Hashed n-gram count rows, each L2-normalized."""
    # Typed buffers, not lists of Python numbers, keep the peak memory low;
    # the rows are views of them.
    indptr = array("q", [0])
    indices = array("q")
    data = array("d")
    for sentence in sentences:
        counts = _feature_counts(sentence.text, dim)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        keys = sorted(counts)
        indices.extend(keys)
        data.extend([counts[idx] / norm for idx in keys])
        indptr.append(indptr[-1] + len(keys))
    return HashedRows(
        np.frombuffer(indptr, dtype=np.int64),
        np.frombuffer(indices, dtype=np.int64),
        np.frombuffer(data, dtype=np.float64),
        dim,
    )


# --- training -------------------------------------------------------------


def logistic_loss(
    w: np.ndarray, b0: float, b1: float, x: HashedRows, y: np.ndarray, l2: float
) -> float:
    """Mean logistic cross-entropy plus (l2 / 2) * ||w||^2, biases unpenalized."""
    d = _row_sums(x, w) + (b1 - b0)
    # log(1 + exp(-d)) + (1 - y) * d, computed stably.
    per = np.logaddexp(0.0, -d) + (1.0 - y) * d
    return float(per.mean() + 0.5 * l2 * float(w @ w))


def logistic_grad(
    w: np.ndarray, b0: float, b1: float, x: HashedRows, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float, float]:
    d = _row_sums(x, w) + (b1 - b0)
    g = sigmoid(d) - y
    gw = _scatter(x, g) / len(y) + l2 * w
    gb = float(g.mean())
    return gw, -gb, gb


_INT_KEYS = ("dim", "ngram_min", "ngram_max", "seed", "epochs")
_REQUIRED_KEYS = (*_INT_KEYS, "bias0", "bias1", "dev_accuracy", "weight_indices", "weight_values")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True, eq=False)
class JudgeModel:
    """Trained judge: hashed-feature weight vector plus a bias pair.

    ``dev_accuracy`` is measured once on the dev split at the end of
    training; downstream loss weighting reads it from here. The model is
    immutable, so the margins it memoizes by text never go stale.
    Equality and hashing are by identity, as befits an object that owns
    a memo.
    """

    weights: np.ndarray
    bias0: float
    bias1: float
    dim: int
    seed: int = 0
    epochs: int = 0
    dev_accuracy: float | None = None
    train_loss: float | None = None
    _margins: dict[str, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        # A read-only copy, so that no edit in place can stale the memo either.
        weights = np.array(self.weights, dtype=np.float64)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        if weights.shape != (self.dim,):
            raise ConfigError(f"weights shape {weights.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(weights)):
            raise InvalidLogits("non-finite weights")

    def margin(self, sentence: Sentence) -> float:
        text = sentence.text
        cached = self._margins.get(text)
        if cached is not None:
            return cached
        counts = _feature_counts(text, self.dim)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        value = sum(self.weights[i] * v for i, v in counts.items()) / norm
        self._margins[text] = value
        return value

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
            "ngram_min": NGRAM_MIN,
            "ngram_max": NGRAM_MAX,
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
        ngrams = (payload["ngram_min"], payload["ngram_max"])
        if not 1 <= dim <= MAX_ARRAY_SIZE:
            raise FormatError(f"dim {dim} is outside [1, {MAX_ARRAY_SIZE}]", name=name)
        if ngrams != (NGRAM_MIN, NGRAM_MAX):
            raise FormatError(f"n-gram range {ngrams}, not ({NGRAM_MIN}, {NGRAM_MAX})", name=name)
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
            seed=payload["seed"],
            epochs=payload["epochs"],
            dev_accuracy=payload["dev_accuracy"],
            train_loss=payload.get("train_loss"),
        )


# Column indices _map_columns rewrites at a time, so that its temporary stays small.
_MAP_BLOCK = 1 << 15


def _map_columns(x: HashedRows, table: np.ndarray) -> None:
    """Replace every column index c in x by table[c], in place."""
    for start in range(0, len(x.indices), _MAP_BLOCK):
        block = x.indices[start : start + _MAP_BLOCK]
        block[...] = table[block]


def _touched_columns(x: HashedRows) -> tuple[np.ndarray, HashedRows]:
    """The sorted columns that x touches, and x restricted to them.

    The restriction shares x's storage: x.indices is remapped in place, and
    _map_columns(x, cols) maps it back. Training on these columns alone
    gives the full-width result bit for bit: a column that no row touches
    has zero gradient and stays at w = 0, and the monotone remap keeps
    every row's terms in their order.
    """
    touched = np.zeros(x.dim, dtype=bool)
    touched[x.indices] = True
    cols = np.flatnonzero(touched)
    rank = np.cumsum(touched)
    rank -= 1
    _map_columns(x, rank)
    return cols, HashedRows(x.indptr, x.indices, x.data, len(cols))


def train_judge(
    train: Sequence[ColaInstance],
    dev: Sequence[ColaInstance],
    config: JudgeConfig | None = None,
) -> JudgeModel:
    """Fit the judge by minibatch SGD, deterministically under config.seed.

    Each epoch shuffles with a generator derived from (seed, epoch).
    """
    cfg = config or JudgeConfig()
    labels = {inst.label for inst in train}
    if len(labels) < 2:
        raise DegenerateCorpus(f"training labels {sorted(labels)} cover a single class")
    x = featurize([inst.sentence for inst in train], cfg.dim)
    y = np.array([float(inst.label) for inst in train])
    cols, xc = _touched_columns(x)
    w = np.zeros(len(cols))
    b0 = b1 = 0.0
    n = len(train)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            gw, gb0, gb1 = logistic_grad(w, b0, b1, xc.take(batch), y[batch], cfg.l2)
            w -= cfg.lr * gw
            b0 -= cfg.lr * gb0
            b1 -= cfg.lr * gb1
    _map_columns(x, cols)  # x, which xc shares, holds the hash columns again
    weights = np.zeros(cfg.dim)
    weights[cols] = w
    # On the full vector: w @ w may group its sums differently on a shorter one.
    loss = logistic_loss(weights, b0, b1, x, y, cfg.l2)
    model = JudgeModel(
        weights=weights,
        bias0=b0,
        bias1=b1,
        dim=cfg.dim,
        seed=cfg.seed,
        epochs=cfg.epochs,
        train_loss=loss,
    )
    trained = replace(model, dev_accuracy=acc(evaluate_judge(model, dev)))
    # Same weights and dim, so the margins just computed for dev still hold.
    object.__setattr__(trained, "_margins", model._margins)
    return trained


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


def evaluate_judge(model: JudgeModel, instances: Sequence[ColaInstance]) -> ConfusionCounts:
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
