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
from ..textcore import AnnotatedPair, write_text
from .decoding import greedy_decode_batch
from ..losses import DYNAMIC, LOSS_KINDS, PLAIN_CE, loss_weight
from .model import Seq2SeqModel
# GRAD_CLIP, the clip every step applies, is part of the recipe, so it is named here too.
from .optim import GRAD_CLIP, clip_gradients, make_optimizer

# The dynamic loss shrinks effective step sizes by the weight factor;
# this multiplier compensates. The logged lr includes it.
DYNAMIC_LR_MULTIPLIER = 2.0


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
        if any(pair.target is None for pair in self.pairs):
            raise ConfigError("training pair without a target sentence")
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
        write_text(path, self.to_jsonl())

    def last(self) -> TrainRecord:
        if not self.records:
            raise ConfigError("empty training log")
        return self.records[-1]


def check_dynamic_judge(judge) -> None:
    """Refuse a judge that cannot weight the dynamic loss: none, or dev accuracy outside (0, 1]."""
    if judge is None:
        raise ConfigError("the dynamic loss needs a judge")
    accuracy = getattr(judge, "dev_accuracy", None)
    if accuracy is None or not (0.0 < accuracy <= 1.0):
        raise ConfigError(f"judge dev accuracy {accuracy!r} is unusable")


def _dev_f05(model: Seq2SeqModel, dev_pairs) -> float:
    decoded = greedy_decode_batch(model, model.encode([pair.source for pair in dev_pairs]))
    return evalmetrics.evaluate_hypotheses(decoded, list(dev_pairs)).f05


def train_gec(
    model: Seq2SeqModel,
    stage: TrainStage,
    judge=None,
    dev_pairs: list[AnnotatedPair] | None = None,
) -> TrainLog:
    """Train the model in place on one stage, returning the log.

    Batches are shuffled by a generator derived from (model.config.seed,
    0, epoch), so the one seed that initializes the model also orders its
    batches, and runs are reproducible.
    """
    if stage.loss == DYNAMIC:
        check_dynamic_judge(judge)
    optimizer = make_optimizer(stage.optimizer, stage.effective_lr)
    sources = [pair.source for pair in stage.pairs]
    targets = [pair.target for pair in stage.pairs]
    n = len(stage.pairs)
    log = TrainLog()
    for epoch in range(1, stage.epochs + 1):
        # The 0 is part of the stream: dropping it would reorder every batch
        # and so change every trained model.
        order = np.random.default_rng([model.config.seed, 0, epoch]).permutation(n)
        loss_sum = 0.0
        weight_sum = 0.0
        clamped_total = 0
        for start in range(0, n, stage.batch_size):
            batch_idx = order[start : start + stage.batch_size]
            batch_tgt = [targets[i] for i in batch_idx]
            enc = model.encode([sources[i] for i in batch_idx])  # for the decode, then the loss
            if stage.loss == DYNAMIC:
                decoded = greedy_decode_batch(model, enc)
                weights = np.array(
                    [loss_weight(judge.dev_accuracy, value) for value in judge.scores(decoded)]
                )
            else:
                weights = np.ones(len(batch_idx))
            nll, grads, clamped = model.loss_and_grads(enc, batch_tgt, weights / len(batch_idx))
            del enc  # freed before the next batch is encoded
            clip_gradients(grads)
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
