"""Decoding strategies and acceptability-based n-best reranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..textcore import Sentence
from .model import EncoderState, Seq2SeqModel
from .vocab import BOS_ID, EOS_ID, PAD_ID


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """One decoded candidate; log_prob is the raw summed token score."""

    tokens: tuple[str, ...]
    log_prob: float
    truncated: bool = False

    def sentence(self) -> Sentence:
        return Sentence(self.tokens)


def _step_limit(enc: EncoderState) -> int:
    """2 * the longest source + 8, read from the mask: empty sources are padded to width 1."""
    return 2 * int(enc.src_mask.sum(axis=1).max(initial=0)) + 8


def greedy_decode_batch(model: Seq2SeqModel, enc: EncoderState) -> list[Sentence]:
    """Argmax decoding over a whole encoded batch; ties take the lowest token id.

    enc is left as it was, so a loss on the same batch can use it after.
    """
    limit = _step_limit(enc)
    s = enc.s0
    tokens = np.full(len(s), BOS_ID, dtype=np.int64)
    done = np.zeros(len(s), dtype=bool)
    steps = []
    for _ in range(limit):
        logp, s = model.decode_step(enc, s, tokens)
        tokens = logp.argmax(axis=1)
        # A row that has emitted EOS emits PAD, and Vocab.decode drops both.
        tokens[done] = PAD_ID
        steps.append(tokens)
        done |= tokens == EOS_ID
        if done.all():
            break
    return [model.vocab.decode(ids) for ids in np.stack(steps, axis=1).tolist()]


def _replicate(enc: EncoderState, count: int) -> EncoderState:
    return EncoderState(
        henc=np.repeat(enc.henc, count, axis=0),
        kproj=np.repeat(enc.kproj, count, axis=0),
        src_mask=np.repeat(enc.src_mask, count, axis=0),
        s0=np.repeat(enc.s0, count, axis=0),
        dec_gru=enc.dec_gru,
        cache=enc.cache,
    )


def check_beam_size(beam_size: int, vocab_size: int) -> None:
    """Refuse a beam narrower than one or wider than the vocabulary.

    A wider beam keeps every candidate of a step, so the search would grow
    by a factor of the vocabulary size each step.
    """
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if beam_size > vocab_size:
        raise ConfigError(f"beam_size {beam_size} exceeds the vocabulary of {vocab_size} tokens")


def check_rerank_lam(lam: float) -> None:
    """Refuse a negative or NaN judge weight for reranking."""
    if not lam >= 0:
        raise ConfigError(f"rerank_lam must be >= 0, got {lam}")


def beam_decode(model: Seq2SeqModel, source: Sentence, beam_size: int = 4) -> list[Hypothesis]:
    """Beam search returning up to beam_size finished hypotheses.

    Candidates are pruned by cumulative log probability with ties broken
    by beam index then token id, so beam_size=1 reproduces greedy
    decoding exactly. The returned list is sorted by descending log
    probability, ties by lexicographic token order.

    The search stops once beam_size hypotheses have finished and the best
    alive score is below the beam_size-th finished one: log-probabilities
    are <= 0, so no extension could enter the returned list.
    """
    check_beam_size(beam_size, len(model.vocab))
    enc = model.encode([source])
    limit = _step_limit(enc)
    alive_tokens: list[tuple[int, ...]] = [()]
    alive_logps = np.zeros(1)
    alive_states = enc.s0
    alive_last = np.full(1, BOS_ID, dtype=np.int64)
    finished: list[Hypothesis] = []
    replicas = {1: enc}
    for _ in range(limit):
        k = len(alive_tokens)
        if k not in replicas:
            replicas[k] = _replicate(enc, k)
        logp, states = model.decode_step(replicas[k], alive_states, alive_last)
        cand = (alive_logps[:, None] + logp).ravel()
        # Flat indices run in (beam, token) order, so a stable sort breaks ties by both.
        order = np.argsort(-cand, kind="stable")[:beam_size]
        beams, tokens = np.divmod(order, logp.shape[1])
        scores = cand[order]
        ended = tokens == EOS_ID
        for b, score in zip(beams[ended].tolist(), scores[ended].tolist()):
            finished.append(Hypothesis(model.vocab.decode(alive_tokens[b]).tokens, score, False))
        go = ~ended
        if not go.any():
            alive_tokens = []
            break
        alive_tokens = [
            alive_tokens[b] + (tok,) for b, tok in zip(beams[go].tolist(), tokens[go].tolist())
        ]
        alive_logps = scores[go]
        alive_states = states[beams[go]]
        alive_last = tokens[go]
        if len(finished) >= beam_size:
            kth_best = sorted((h.log_prob for h in finished), reverse=True)[beam_size - 1]
            if alive_logps.max() < kth_best:
                break
    for tokens, logp_val in zip(alive_tokens, alive_logps):
        finished.append(Hypothesis(model.vocab.decode(tokens).tokens, float(logp_val), True))
    finished.sort(key=lambda h: (-h.log_prob, h.tokens))
    return finished[:beam_size]


def rerank_with_cola(
    hypotheses: list[Hypothesis],
    judge,
    lam: float = 0.5,
) -> Sentence:
    """Pick the hypothesis maximizing normalized log-prob minus lam * score.

    The judge score is high for sentences that look wrong, so lam > 0
    pushes the choice toward acceptable candidates. lam == 0 keeps the
    decoder's own ranking; ties keep the earlier (higher-ranked)
    hypothesis.
    """
    if not hypotheses:
        raise ConfigError("no hypotheses to rerank")
    check_rerank_lam(lam)
    if lam == 0:
        return hypotheses[0].sentence()
    best = hypotheses[0]
    best_score = -np.inf
    values = judge.scores([hyp.sentence() for hyp in hypotheses])
    for hyp, value in zip(hypotheses, values):
        score = hyp.log_prob / max(1, len(hyp.tokens)) - lam * value
        if score > best_score:
            best, best_score = hyp, score
    return best.sentence()


def decode(
    model: Seq2SeqModel,
    sources: list[Sentence],
    beam_size: int = 1,
    judge=None,
    lam: float = 0.5,
) -> list[Sentence]:
    """Correct every source: the one decode entry point.

    Without a judge, beam_size 1 decodes greedily over the whole batch
    and a larger beam keeps each search's top hypothesis. With a judge,
    each beam's n-best is reranked by rerank_with_cola with weight lam;
    without one, a lam other than its default would go unread and is refused.
    """
    if judge is None and lam != 0.5:
        raise ConfigError(f"lam {lam} weighs the judge's score, so it needs a judge")
    if not sources:
        return []
    if judge is None and beam_size == 1:
        return greedy_decode_batch(model, model.encode(sources))
    if judge is None:
        return [beam_decode(model, src, beam_size)[0].sentence() for src in sources]
    return [
        rerank_with_cola(beam_decode(model, src, beam_size), judge, lam) for src in sources
    ]
