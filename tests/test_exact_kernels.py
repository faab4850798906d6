"""Bitwise guards for the exact fast paths.

Each fast path computes the same floating-point operations as the code it
replaced, in the same order, so the results must be bitwise equal, not
merely close. Whether a fused matrix product reproduces the per-gate
products bit for bit depends on the BLAS, so these tests are what guards
that property on a given installation. Every reference below is the
replaced code, spelled out.
"""

import math
import random

import numpy as np
import pytest

from geckit.gec import (
    DYNAMIC,
    PLAIN_CE,
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    beam_decode,
    clip_gradients,
    greedy_decode_batch,
    loss_weight,
    make_optimizer,
    train_gec,
)
from geckit.gec import model as gec_model
from geckit.gec.decoding import Hypothesis, _replicate, _step_limit
from geckit.gec.training import GRAD_CLIP
from geckit.gec.vocab import BOS_ID, EOS_ID, SPECIALS
from geckit.judge import JudgeModel, _feature_counts, sigmoid
from geckit.textcore import OTHER, AnnotatedPair, Edit, Sentence

WORDS = ("a", "b", "c", "d", "e", "f")


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_gru_step(p, prefix, x, h_prev):
    az = x @ p[f"{prefix}_Wxz"] + h_prev @ p[f"{prefix}_Whz"] + p[f"{prefix}_bz"]
    z = reference_sigmoid(az)
    ar = x @ p[f"{prefix}_Wxr"] + h_prev @ p[f"{prefix}_Whr"] + p[f"{prefix}_br"]
    r = reference_sigmoid(ar)
    rh = r * h_prev
    an = x @ p[f"{prefix}_Wxn"] + rh @ p[f"{prefix}_Whn"] + p[f"{prefix}_bn"]
    n = np.tanh(an)
    h = (1.0 - z) * n + z * h_prev
    return h, (x, h_prev, z, r, n, rh)


def random_sentences(rng, count, max_len=6):
    return [
        Sentence(tuple(rng.choice(WORDS) for _ in range(rng.randint(0, max_len))))
        for _ in range(count)
    ]


def random_model(seed, embed_dim=5, hidden_dim=7):
    rng = np.random.default_rng(seed)
    config = ModelConfig(embed_dim=embed_dim, hidden_dim=hidden_dim, seed=seed)
    model = Seq2SeqModel(Vocab(SPECIALS + WORDS), config)
    for name, arr in model.params.items():
        model.params[name] = rng.normal(0.0, 1.5, arr.shape)
    return model


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.5, 4.0, 50.0, 800.0])
    @pytest.mark.parametrize("shape", [(1,), (7,), (33,), (32, 64), (3, 5, 11)])
    def test_matches_masked_formula(self, scale, shape):
        x = np.random.default_rng(int(scale * 10) + len(shape)).normal(0.0, scale, shape)
        assert np.array_equal(sigmoid(x), reference_sigmoid(x))

    def test_signed_zeros_and_subnormal_scale(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 745.2, -745.2, 1e308, -1e308])
        got = sigmoid(x)
        assert np.array_equal(got, reference_sigmoid(x))
        assert got[0] == got[1] == 0.5


class TestFusedGru:
    @pytest.mark.parametrize("batch", [1, 2, 7, 32])
    @pytest.mark.parametrize("prefix", ["enc", "dec"])
    def test_step_matches_per_gate_products(self, batch, prefix):
        model = random_model(batch, embed_dim=32, hidden_dim=64)
        p = model.params
        rng = np.random.default_rng(100 + batch)
        fused = gec_model._gru_weights(p, prefix)
        for _ in range(3):
            x = rng.normal(0.0, 1.0, (batch, 32))
            h_prev = rng.normal(0.0, 1.0, (batch, 64))
            got_h, got_cache = gec_model._gru_step(fused, x, h_prev)
            ref_h, ref_cache = reference_gru_step(p, prefix, x, h_prev)
            assert np.array_equal(got_h, ref_h)
            for got, ref in zip(got_cache, ref_cache):
                assert np.array_equal(got, ref)


def toy_pairs(n, seed):
    """Toy correction task: one token per sentence becomes 'a'."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        source = Sentence(tuple(rng.choice(WORDS) for _ in range(rng.randint(2, 6))))
        position = rng.randrange(len(source))
        out.append(AnnotatedPair.from_edits(source, [Edit(position, position + 1, ("a",), OTHER)]))
    return out


class LengthJudge:
    """Deterministic stand-in judge: longer decodes look worse."""

    dev_accuracy = 0.9

    def score(self, sentence):
        return type("Score", (), {"value": 1.0 - 1.0 / (2.0 + len(sentence))})()


def reference_train(model, stage, judge, seed):
    """train_gec's loop with the decode and the loss each encoding the batch."""
    optimizer = make_optimizer(stage.optimizer, stage.effective_lr)
    sources = [pair.source for pair in stage.pairs]
    targets = [pair.target for pair in stage.pairs]
    n = len(sources)
    for epoch in range(1, stage.epochs + 1):
        order = np.random.default_rng([seed, 0, epoch]).permutation(n)
        for start in range(0, n, stage.batch_size):
            batch_idx = order[start : start + stage.batch_size]
            batch_src = [sources[i] for i in batch_idx]
            batch_tgt = [targets[i] for i in batch_idx]
            if stage.loss == DYNAMIC:
                decoded = greedy_decode_batch(model, batch_src)
                scores = [judge.score(hyp).value for hyp in decoded]
                weights = np.array([loss_weight(judge.dev_accuracy, v) for v in scores])
            else:
                weights = np.ones(len(batch_idx))
            _nll, grads, _clamped = model.loss_and_grads(
                batch_src, batch_tgt, sentence_scale=weights / len(batch_idx)
            )
            clip_gradients(grads, GRAD_CLIP)
            optimizer.step(model.params, grads)


class TestSharedEncoding:
    @pytest.mark.parametrize("loss", [PLAIN_CE, DYNAMIC])
    def test_every_parameter_matches_unshared_training(self, loss):
        pairs = tuple(toy_pairs(30, 3))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        config = ModelConfig(embed_dim=6, hidden_dim=10, seed=5)
        stage = TrainStage(name="s", pairs=pairs, epochs=3, lr=0.05, loss=loss, batch_size=7)
        shared, unshared = Seq2SeqModel(vocab, config), Seq2SeqModel(vocab, config)
        train_gec(shared, stage, judge=LengthJudge(), seed=4)
        reference_train(unshared, stage, LengthJudge(), seed=4)
        assert sorted(shared.params) == sorted(unshared.params)
        for name in shared.params:
            assert np.array_equal(shared.params[name], unshared.params[name]), name

    def test_loss_with_shared_encoding_equals_fresh(self):
        model = random_model(11)
        rng = random.Random(11)
        sources, targets = random_sentences(rng, 5), random_sentences(rng, 5)
        fresh = model.loss_and_grads(sources, targets)
        shared = model.loss_and_grads(sources, targets, _enc=model.encode(sources))
        assert np.array_equal(fresh[0], shared[0]) and fresh[2] == shared[2]
        for name in fresh[1]:
            assert np.array_equal(fresh[1][name], shared[1][name]), name


def reference_margin(judge, sentence):
    counts = _feature_counts(sentence.text, judge.dim)
    norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
    return sum(judge.weights[i] * v for i, v in counts.items()) / norm


class TestMarginMemo:
    def test_memoized_margins_equal_fresh(self):
        weights = np.random.default_rng(6).normal(0.0, 3.0, 512)
        judge = JudgeModel(weights=weights, bias0=0.1, bias1=-0.2, dim=512)
        texts = random_sentences(random.Random(6), 60) * 3
        fresh = [reference_margin(judge, s) for s in texts]
        assert np.array_equal([judge.margin(s) for s in texts], fresh)
        assert np.array_equal([judge.margin(s) for s in texts], fresh)


def reference_beam(model, source, beam_size):
    """beam_decode without the early stop: runs until no hypothesis is alive or the step limit."""
    enc = model.encode([source])
    alive_tokens, alive_logps = [()], np.zeros(1)
    alive_states, alive_last = enc.s0, np.full(1, BOS_ID, dtype=np.int64)
    finished, steps = [], 0
    for _ in range(_step_limit([source])):
        k = len(alive_tokens)
        logp, states = model.decode_step(_replicate(enc, k), alive_states, alive_last)
        steps += 1
        vocab_size = logp.shape[1]
        cand = (alive_logps[:, None] + logp).ravel()
        beam_idx = np.repeat(np.arange(k), vocab_size)
        token_idx = np.tile(np.arange(vocab_size), k)
        nxt = []
        for flat in np.lexsort((token_idx, beam_idx, -cand))[:beam_size]:
            b, tok, score = int(beam_idx[flat]), int(token_idx[flat]), float(cand[flat])
            if tok == EOS_ID:
                tokens = model.vocab.decode(alive_tokens[b]).tokens
                finished.append(Hypothesis(tokens, score, False))
            else:
                nxt.append((alive_tokens[b] + (tok,), score, states[b], tok))
        if not nxt:
            break
        alive_tokens = [t for t, _, _, _ in nxt]
        alive_logps = np.array([s for _, s, _, _ in nxt])
        alive_states = np.stack([st for _, _, st, _ in nxt])
        alive_last = np.array([tok for _, _, _, tok in nxt], dtype=np.int64)
    for tokens, logp_val in zip(alive_tokens, alive_logps):
        finished.append(Hypothesis(model.vocab.decode(tokens).tokens, float(logp_val), True))
    finished.sort(key=lambda h: (-h.log_prob, h.tokens))
    return finished[:beam_size], steps


class TestBeamStop:
    def test_nbest_equals_run_to_step_limit(self, monkeypatch):
        calls = []
        original = Seq2SeqModel.decode_step

        def counting(self, enc, s, token_ids):
            calls.append(len(token_ids))
            return original(self, enc, s, token_ids)

        monkeypatch.setattr(Seq2SeqModel, "decode_step", counting)
        saved_steps = 0
        rng = random.Random(8)
        for seed in range(12):
            model = random_model(seed, embed_dim=4, hidden_dim=6)
            model.params["out_b"][EOS_ID] += 2.0  # finish early enough to stop before the limit
            for source in random_sentences(rng, 4):
                for beam_size in (1, 2, 4):
                    expected, ref_steps = reference_beam(model, source, beam_size)
                    calls.clear()
                    assert beam_decode(model, source, beam_size) == expected
                    assert len(calls) <= ref_steps
                    saved_steps += ref_steps - len(calls)
        assert saved_steps > 0
