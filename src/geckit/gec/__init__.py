"""Neural correction model: vocabulary, network, losses, decoding, training."""

from .decoding import (
    Hypothesis,
    beam_decode,
    check_beam_size,
    decode,
    greedy_decode_batch,
    rerank_score,
    rerank_with_cola,
)
from .losses import (
    DYNAMIC,
    LOSS_KINDS,
    PLAIN_CE,
    PROB_FLOOR,
    loss_weight,
)
from .model import EncoderState, ModelConfig, Seq2SeqModel
from .optim import Adam, Sgd, clip_gradients, make_optimizer
from .training import (
    DYNAMIC_LR_MULTIPLIER,
    TrainLog,
    TrainRecord,
    TrainStage,
    train_gec,
)
from .vocab import (
    BOS_ID,
    BOS_TOKEN,
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    SPECIALS,
    UNK_ID,
    UNK_TOKEN,
    Vocab,
)

__all__ = [
    "Adam",
    "BOS_ID",
    "BOS_TOKEN",
    "DYNAMIC",
    "DYNAMIC_LR_MULTIPLIER",
    "EOS_ID",
    "EOS_TOKEN",
    "EncoderState",
    "Hypothesis",
    "LOSS_KINDS",
    "ModelConfig",
    "PAD_ID",
    "PAD_TOKEN",
    "PLAIN_CE",
    "PROB_FLOOR",
    "SPECIALS",
    "Seq2SeqModel",
    "Sgd",
    "TrainLog",
    "TrainRecord",
    "TrainStage",
    "UNK_ID",
    "UNK_TOKEN",
    "Vocab",
    "beam_decode",
    "check_beam_size",
    "clip_gradients",
    "decode",
    "greedy_decode_batch",
    "loss_weight",
    "make_optimizer",
    "rerank_score",
    "rerank_with_cola",
    "train_gec",
]
