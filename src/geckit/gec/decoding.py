"""Decoding strategies and acceptability-based n-best reranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..judge import cola_score
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


def _step_limit(sources: list[Sentence]) -> int:
    longest = max((len(s) for s in sources), default=0)
    return 2 * longest + 8


def greedy_decode_batch(
    model: Seq2SeqModel, sources: list[Sentence], *, _enc: EncoderState | None = None
) -> list[Sentence]:
    """Argmax decoding over a whole batch; ties take the lowest token id.

    _enc, when given, is model.encode(sources) under the current
    parameters, shared with a loss computation on the same batch.
    """
    if not sources:
        return []
    limit = _step_limit(sources)
    enc = model.encode(sources) if _enc is None else _enc
    batch = len(sources)
    s = enc.s0
    tokens = np.full(batch, BOS_ID, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)
    outputs: list[list[int]] = [[] for _ in range(batch)]
    for _ in range(limit):
        logp, s = model.decode_step(enc, s, tokens)
        tokens = logp.argmax(axis=1)
        tokens[done] = PAD_ID
        for i in range(batch):
            if done[i]:
                continue
            if tokens[i] == EOS_ID:
                done[i] = True
            else:
                outputs[i].append(int(tokens[i]))
        if done.all():
            break
    return [model.vocab.decode(ids) for ids in outputs]


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
    limit = _step_limit([source])
    enc = model.encode([source])
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
        vocab_size = logp.shape[1]
        cand = (alive_logps[:, None] + logp).ravel()
        beam_idx = np.repeat(np.arange(k), vocab_size)
        token_idx = np.tile(np.arange(vocab_size), k)
        order = np.lexsort((token_idx, beam_idx, -cand))[:beam_size]
        next_tokens: list[tuple[int, ...]] = []
        next_logps = []
        next_states = []
        next_last = []
        for flat in order:
            b, tok = int(beam_idx[flat]), int(token_idx[flat])
            score = float(cand[flat])
            if tok == EOS_ID:
                finished.append(
                    Hypothesis(model.vocab.decode(alive_tokens[b]).tokens, score, False)
                )
            else:
                next_tokens.append(alive_tokens[b] + (tok,))
                next_logps.append(score)
                next_states.append(states[b])
                next_last.append(tok)
        if not next_tokens:
            alive_tokens = []
            break
        alive_tokens = next_tokens
        alive_logps = np.array(next_logps)
        alive_states = np.stack(next_states)
        alive_last = np.array(next_last, dtype=np.int64)
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
    if not lam >= 0:
        raise ConfigError(f"lam must be >= 0, got {lam}")
    if lam == 0:
        return hypotheses[0].sentence()
    best = hypotheses[0]
    best_score = -np.inf
    for hyp in hypotheses:
        score = rerank_score(hyp, judge, lam)
        if score > best_score:
            best, best_score = hyp, score
    return best.sentence()


def rerank_score(hypothesis: Hypothesis, judge, lam: float) -> float:
    sentence = hypothesis.sentence()
    fluency = hypothesis.log_prob / max(1, len(hypothesis.tokens))
    return fluency - lam * cola_score(judge.logits(sentence)).value


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
    each beam's n-best is reranked by rerank_with_cola with weight lam.
    """
    if not sources:
        return []
    if judge is None and beam_size == 1:
        return greedy_decode_batch(model, sources)
    if judge is None:
        return [beam_decode(model, src, beam_size)[0].sentence() for src in sources]
    return [
        rerank_with_cola(beam_decode(model, src, beam_size), judge, lam) for src in sources
    ]
