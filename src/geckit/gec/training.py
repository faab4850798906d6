"""Training for the correction model.

One stage sets the data and the optimization. With the dynamic loss it
needs a judge: each batch is greedy-decoded with the current
parameters, the decodes are scored for acceptability, and every
sentence's cross-entropy is scaled by sqrt(judge_dev_accuracy * score)
before averaging. Weights are constants in the gradient; only the
cross-entropy part backpropagates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import evalmetrics
from ..errors import ConfigError
from ..textcore import AnnotatedPair
from .decoding import greedy_decode_batch
from .losses import DYNAMIC, LOSS_KINDS, PLAIN_CE, loss_weight
from .model import Seq2SeqModel
from .optim import clip_gradients, make_optimizer

# The dynamic loss shrinks effective step sizes by the weight factor;
# this multiplier compensates. The logged lr includes it.
DYNAMIC_LR_MULTIPLIER = 2.0
# Largest global L2 norm of one batch's gradients.
GRAD_CLIP = 5.0


@dataclass(frozen=True, slots=True)
class TrainStage:
    """The training data plus optimization settings."""

    pairs: tuple[AnnotatedPair, ...]
    epochs: int
    lr: float
    loss: str = PLAIN_CE
    batch_size: int = 32
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ConfigError("no training pairs")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    @property
    def effective_lr(self) -> float:
        return self.lr * (DYNAMIC_LR_MULTIPLIER if self.loss == DYNAMIC else 1.0)


@dataclass(frozen=True, slots=True)
class TrainRecord:
    epoch: int
    mean_loss: float
    mean_weight: float
    dev_f05: float | None
    lr: float
    clamped_steps: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(record.to_json() + "\n" for record in self.records)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    def last(self) -> TrainRecord:
        if not self.records:
            raise ConfigError("empty training log")
        return self.records[-1]


def _dev_f05(model: Seq2SeqModel, dev_pairs) -> float:
    sources = [pair.source for pair in dev_pairs]
    decoded = greedy_decode_batch(model, sources)
    return evalmetrics.evaluate_hypotheses(decoded, list(dev_pairs)).f05


def train_gec(
    model: Seq2SeqModel,
    stage: TrainStage,
    judge=None,
    dev_pairs: list[AnnotatedPair] | None = None,
    seed: int = 0,
) -> TrainLog:
    """Train the model in place on one stage, returning the log.

    Batches are shuffled by a generator derived from (seed, 0, epoch),
    so runs are reproducible given the same model initialization.
    """
    if stage.loss == DYNAMIC:
        if judge is None:
            raise ConfigError("the dynamic loss needs a judge")
        accuracy = getattr(judge, "dev_accuracy", None)
        if accuracy is None or not (0.0 < accuracy <= 1.0):
            raise ConfigError(f"judge dev accuracy {accuracy!r} is unusable")
    optimizer = make_optimizer(stage.optimizer, stage.effective_lr)
    sources = [pair.source for pair in stage.pairs]
    targets = []
    for pair in stage.pairs:
        if pair.target is None:
            raise ConfigError("training pair without a target sentence")
        targets.append(pair.target)
    n = len(stage.pairs)
    log = TrainLog()
    for epoch in range(1, stage.epochs + 1):
        # The 0 is part of the stream: dropping it would reorder every batch
        # and so change every trained model.
        order = np.random.default_rng([seed, 0, epoch]).permutation(n)
        loss_sum = 0.0
        weight_sum = 0.0
        clamped_total = 0
        for start in range(0, n, stage.batch_size):
            batch_idx = order[start : start + stage.batch_size]
            batch_src = [sources[i] for i in batch_idx]
            batch_tgt = [targets[i] for i in batch_idx]
            enc = None
            if stage.loss == DYNAMIC:
                enc = model.encode(batch_src)  # shared by the decode and the loss
                decoded = greedy_decode_batch(model, batch_src, _enc=enc)
                weights = np.array(
                    [loss_weight(judge.dev_accuracy, judge.score(hyp).value) for hyp in decoded]
                )
            else:
                weights = np.ones(len(batch_idx))
            nll, grads, clamped = model.loss_and_grads(
                batch_src, batch_tgt, sentence_scale=weights / len(batch_idx), _enc=enc
            )
            clip_gradients(grads, GRAD_CLIP)
            optimizer.step(model.params, grads)
            loss_sum += float(weights @ nll)
            weight_sum += float(weights.sum())
            clamped_total += clamped
        dev_f05 = _dev_f05(model, dev_pairs) if dev_pairs else None
        log.records.append(
            TrainRecord(
                epoch=epoch,
                mean_loss=loss_sum / n,
                mean_weight=weight_sum / n,
                dev_f05=dev_f05,
                lr=stage.effective_lr,
                clamped_steps=clamped_total,
            )
        )
    return log
