"""Correction-model loss kinds and the dynamic-loss weight.

The one cross-entropy is Seq2SeqModel.loss_and_grads. The dynamic
variant rescales it by a per-sentence weight sqrt(judge_accuracy *
acceptability_score), passed as sentence_scale. The weight acts on the
loss as a detached scalar: gradients are the cross-entropy gradients
times the weight, never differentiated through the judge.
"""

from __future__ import annotations

import math

from ..errors import ConfigError

# Gold-token probabilities below this are clamped before the log.
PROB_FLOOR = 1e-12
_MAX_NLL = -math.log(PROB_FLOOR)

PLAIN_CE = "plain_ce"
DYNAMIC = "dynamic"
LOSS_KINDS = (PLAIN_CE, DYNAMIC)


def loss_weight(accuracy: float, score: float) -> float:
    """sqrt(judge dev accuracy x acceptability score).

    The score normally lives in (0, 1); 1.0 is accepted so a perfect
    constant judge can express an exact unit weight.
    """
    if not (0.0 <= accuracy <= 1.0):
        raise ConfigError(f"accuracy outside [0, 1]: {accuracy}")
    if not (0.0 < score <= 1.0):
        raise ConfigError(f"score outside (0, 1]: {score}")
    return math.sqrt(accuracy * score)
