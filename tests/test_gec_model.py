"""Tests for the correction model: vocabulary, losses, network gradients."""

import math

import numpy as np
import pytest

from geckit.errors import ConfigError
from geckit.gec import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    PROB_FLOOR,
    UNK_ID,
    ModelConfig,
    Seq2SeqModel,
    Vocab,
    loss_weight,
)
from geckit.textcore import Sentence


def sent(text):
    return Sentence(tuple(text.split()))


def toy_model(seed=0):
    corpus = [sent("a b c d"), sent("e f a"), sent("b c e")]
    vocab = Vocab.from_sentences(corpus)
    model = Seq2SeqModel(vocab, ModelConfig(embed_dim=6, hidden_dim=8, seed=seed))
    return model, corpus


class TestVocab:
    def test_reserved_ids(self):
        vocab = Vocab.from_sentences([sent("b a")])
        assert vocab.tokens[:4] == ("<pad>", "<bos>", "<eos>", "<unk>")
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert vocab.tokens[4:] == ("a", "b")

    def test_encode_decode(self):
        vocab = Vocab.from_sentences([sent("cat dog")])
        ids = vocab.encode(sent("dog cat bird"))
        assert ids[-1] == UNK_ID
        assert vocab.decode(ids).text == "dog cat <unk>"

    def test_decode_skips_control_ids(self):
        vocab = Vocab.from_sentences([sent("x")])
        assert vocab.decode([BOS_ID, 4, EOS_ID, PAD_ID]).text == "x"

    def test_deterministic_order(self):
        a = Vocab.from_sentences([sent("b a c")])
        b = Vocab.from_sentences([sent("c b a")])
        assert a.tokens == b.tokens


def bias_only_model(out_b):
    """Vocabulary (pad, bos, eos, unk, a); every parameter zero but out_b.

    Zero weights make every decoder step's logits equal out_b, so the
    gold-token probabilities are known in closed form.
    """
    model = Seq2SeqModel(Vocab.from_sentences([sent("a")]), ModelConfig(embed_dim=3, hidden_dim=4))
    model.set_flat_params(np.zeros(model.num_params()))
    model.params["out_b"] = np.asarray(out_b, dtype=np.float64)
    return model


class TestCeLoss:
    """The production cross-entropy: Seq2SeqModel.loss_and_grads."""

    def test_frozen_example(self):
        model = bias_only_model(np.log([0.1, 0.1, 0.25, 0.05, 0.5]))
        nll, _, clamped = model.loss_and_grads([sent("a")], [sent("a")])
        # -log p(a) - log p(eos) = -log 0.5 - log 0.25
        assert nll[0] == pytest.approx(2.079442, abs=5e-7)
        assert clamped == 0

    def test_perfect_prediction_is_zero(self):
        model = bias_only_model([0.0, 0.0, 1000.0, 0.0, 0.0])
        nll, grads, _ = model.loss_and_grads([sent("a")], [Sentence(())])
        assert nll[0] == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_uniform_closed_form(self):
        model = bias_only_model(np.zeros(5))
        v = len(model.vocab)
        targets = [Sentence(()), sent("a"), sent("a a a a")]
        nll, _, _ = model.loss_and_grads([sent("a")] * 3, targets)
        for i, target in enumerate(targets):
            assert nll[i] == pytest.approx((len(target) + 1) * math.log(v), rel=1e-12)

    def test_mask_skips_steps(self):
        model, _ = toy_model(seed=6)
        sources = [sent("a b c d"), sent("e"), Sentence(())]
        targets = [sent("f"), sent("a b c e f"), sent("d d")]
        batch, _, _ = model.loss_and_grads(sources, targets)
        for i in range(len(sources)):
            alone, _, _ = model.loss_and_grads(sources[i : i + 1], targets[i : i + 1])
            assert batch[i] == pytest.approx(alone[0], rel=1e-12, abs=0)

    def test_clamp_counts_and_flat_gradient(self):
        # Both gold steps (a, then eos) sit far below log(PROB_FLOOR).
        model = bias_only_model([0.0, 0.0, -100.0, 0.0, -100.0])
        nll, grads, clamped = model.loss_and_grads([sent("a")], [sent("a")])
        assert clamped == 2
        assert nll[0] == pytest.approx(-2 * math.log(PROB_FLOOR))
        assert all(np.all(g == 0) for g in grads.values())

    def test_gradient_matches_finite_differences(self):
        # With every weight zero, each step's logits are out_b, so d(loss)/d(out_b)
        # is the cross-entropy's gradient with respect to the logits.
        rng = np.random.default_rng(4)
        model = bias_only_model(rng.uniform(-1.0, 1.0, size=5))
        sources = [sent("a"), Sentence(()), sent("a a")]
        targets = [sent("a a"), Sentence(()), sent("a b")]
        scale = np.ones(len(sources))

        def objective():
            nll, _, _ = model.loss_and_grads(sources, targets, sentence_scale=scale)
            return float(scale @ nll)

        _, grads, clamped = model.loss_and_grads(sources, targets, sentence_scale=scale)
        assert clamped == 0
        out_b = model.params["out_b"].copy()
        h = 1e-7
        for v in range(out_b.size):
            model.params["out_b"] = out_b.copy()
            model.params["out_b"][v] += h
            up = objective()
            model.params["out_b"][v] -= 2 * h
            down = objective()
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grads["out_b"][v], abs=1e-4, rel=1e-4)
        model.params["out_b"] = out_b

    def test_rejects_invalid_rows(self):
        model, corpus = toy_model()
        with pytest.raises(ConfigError):
            model.loss_and_grads(corpus, corpus[:-1])
        with pytest.raises(ConfigError):
            model.loss_and_grads(corpus, corpus, sentence_scale=np.ones(len(corpus) + 1))


class TestLossWeight:
    def test_frozen_example(self):
        assert loss_weight(0.85, 0.5) == pytest.approx(0.651920, abs=5e-7)
        assert loss_weight(0.85, 0.5) == math.sqrt(0.425)

    def test_identity_and_annihilator(self):
        assert loss_weight(1.0, 1.0) == 1.0
        assert loss_weight(0.0, 0.5) == 0.0

    def test_monotone_in_each_argument(self):
        assert loss_weight(0.9, 0.5) > loss_weight(0.8, 0.5)
        assert loss_weight(0.9, 0.6) > loss_weight(0.9, 0.5)

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            loss_weight(1.1, 0.5)
        with pytest.raises(ConfigError):
            loss_weight(0.9, 0.0)


class TestDynamicLoss:
    """The dynamic loss: loss_and_grads with loss_weight as sentence_scale."""

    def test_frozen_example(self):
        model = bias_only_model(np.log([0.1, 0.1, 0.25, 0.05, 0.5]))
        weight = loss_weight(0.85, 0.5)
        nll, grads, clamped = model.loss_and_grads([sent("a")], [sent("a")], np.array([weight]))
        _, unit, _ = model.loss_and_grads([sent("a")], [sent("a")], np.ones(1))
        assert weight * nll[0] == pytest.approx(1.355630, abs=5e-7)
        assert clamped == 0
        for name in grads:
            assert np.allclose(grads[name], weight * unit[name], rtol=0, atol=1e-15)

    def test_identity_when_weight_one(self):
        model, corpus = toy_model(seed=8)
        ones = np.ones(len(corpus))
        weights = np.array([loss_weight(1.0, 1.0)] * len(corpus))
        nll_w, grads_w, _ = model.loss_and_grads(corpus, corpus, weights)
        nll, grads, _ = model.loss_and_grads(corpus, corpus, ones)
        assert np.array_equal(nll_w, nll)
        assert all(np.array_equal(grads_w[name], grads[name]) for name in grads)

    def test_total_matches_product_on_random_inputs(self):
        rng = np.random.default_rng(9)
        model, corpus = toy_model(seed=9)
        for _ in range(30):
            i = int(rng.integers(len(corpus)))
            src, tgt = [corpus[i]], [corpus[int(rng.integers(len(corpus)))]]
            weight = loss_weight(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.01, 0.99)))
            nll_w, grads_w, _ = model.loss_and_grads(src, tgt, np.array([weight]))
            nll, grads, _ = model.loss_and_grads(src, tgt, np.ones(1))
            assert np.array_equal(nll_w, nll)
            for name in grads:
                limit = 1e-12 * max(1.0, float(np.abs(grads[name]).max()))
                assert np.abs(grads_w[name] - weight * grads[name]).max() <= limit


class TestModelBasics:
    def test_deterministic_init(self):
        a, _ = toy_model(seed=3)
        b, _ = toy_model(seed=3)
        assert np.array_equal(a.flat_params(), b.flat_params())
        c, _ = toy_model(seed=4)
        assert not np.array_equal(a.flat_params(), c.flat_params())

    def test_step_distributions_sum_to_one(self):
        model, corpus = toy_model()
        enc = model.encode(corpus)
        logp, _ = model.decode_step(enc, enc.s0, np.full(len(corpus), BOS_ID, dtype=np.int64))
        probs = np.exp(logp)
        assert probs.shape == (len(corpus), len(model.vocab))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)

    def test_loss_reproducible(self):
        model, corpus = toy_model()
        nll1, _, _ = model.loss_and_grads(corpus, corpus)
        nll2, _, _ = model.loss_and_grads(corpus, corpus)
        assert np.array_equal(nll1, nll2)

    def test_save_load_round_trip(self, tmp_path):
        model, corpus = toy_model(seed=7)
        model.save(tmp_path / "model")
        loaded = Seq2SeqModel.load(tmp_path / "model")
        assert np.array_equal(loaded.flat_params(), model.flat_params())
        assert loaded.vocab.tokens == model.vocab.tokens
        nll_a, _, _ = model.loss_and_grads(corpus, corpus)
        nll_b, _, _ = loaded.loss_and_grads(corpus, corpus)
        assert np.array_equal(nll_a, nll_b)


class TestModelGradients:
    def test_matches_finite_differences(self):
        model, _ = toy_model(seed=1)
        assert model.num_params() <= 5000
        sources = [sent("a b c"), sent("e f"), Sentence(())]
        targets = [sent("a b c d"), sent("f"), sent("a")]
        weights = np.array([1.0, 0.7, 0.4])
        scale = weights / len(sources)

        def objective():
            nll, _, _ = model.loss_and_grads(sources, targets, sentence_scale=scale)
            return float(scale @ nll)

        nll, grads, clamped = model.loss_and_grads(sources, targets, sentence_scale=scale)
        assert clamped == 0
        flat_grad = np.concatenate([grads[name].ravel() for name in sorted(grads)])
        base = model.flat_params()
        h = 1e-6
        worst = 0.0
        for idx in range(base.size):
            bumped = base.copy()
            bumped[idx] += h
            model.set_flat_params(bumped)
            up = objective()
            bumped[idx] -= 2 * h
            model.set_flat_params(bumped)
            down = objective()
            fd = (up - down) / (2 * h)
            err = abs(fd - flat_grad[idx]) / max(1.0, abs(fd), abs(flat_grad[idx]))
            worst = max(worst, err)
        model.set_flat_params(base)
        assert worst <= 1e-4

    def test_per_sentence_nll_non_negative(self):
        model, corpus = toy_model(seed=2)
        nll, _, _ = model.loss_and_grads(corpus, corpus)
        assert np.all(nll >= 0)

    def test_scale_zero_sentence_contributes_no_gradient(self):
        model, _ = toy_model(seed=5)
        sources = [sent("a b"), sent("c d")]
        targets = [sent("a b"), sent("c d")]
        _, grads_full, _ = model.loss_and_grads(sources, targets, np.array([0.5, 0.0]))
        _, grads_solo, _ = model.loss_and_grads(sources[:1], targets[:1], np.array([0.5]))
        for name in grads_full:
            assert np.allclose(grads_full[name], grads_solo[name], atol=1e-12)
