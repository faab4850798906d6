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
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

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
from geckit.gec.decoding import Hypothesis, _replicate
from geckit.gec.optim import Adam
from geckit.gec.vocab import BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID
from geckit import judge as judge_mod
from geckit.judge import (
    _HASH_BLOCK,
    JudgeConfig,
    JudgeModel,
    Logits,
    _map_columns,
    _row_sums,
    _scatter,
    _touched_columns,
    acc,
    cola_score,
    evaluate_judge,
    featurize,
    logistic_grad,
    logistic_loss,
    sigmoid,
    train_judge,
)
from geckit.textcore import OTHER, AnnotatedPair, ColaInstance, Edit, Sentence

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

    def scores(self, sentences):
        return [self.score(s).value for s in sentences]


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
                decoded = greedy_decode_batch(model, model.encode(batch_src))
                scores = [judge.score(hyp).value for hyp in decoded]
                weights = np.array([loss_weight(judge.dev_accuracy, v) for v in scores])
            else:
                weights = np.ones(len(batch_idx))
            _nll, grads, _clamped = model.loss_and_grads(
                model.encode(batch_src), batch_tgt, sentence_scale=weights / len(batch_idx)
            )
            clip_gradients(grads)
            optimizer.step(model.params, grads)


class TestSharedEncoding:
    @pytest.mark.parametrize("loss", [PLAIN_CE, DYNAMIC])
    def test_every_parameter_matches_unshared_training(self, loss):
        pairs = tuple(toy_pairs(30, 3))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        config = ModelConfig(embed_dim=6, hidden_dim=10, seed=5)
        stage = TrainStage(pairs=pairs, epochs=3, lr=0.05, loss=loss, batch_size=7)
        shared, unshared = Seq2SeqModel(vocab, config), Seq2SeqModel(vocab, config)
        train_gec(shared, stage, judge=LengthJudge())
        reference_train(unshared, stage, LengthJudge(), seed=config.seed)
        assert sorted(shared.params) == sorted(unshared.params)
        for name in shared.params:
            assert np.array_equal(shared.params[name], unshared.params[name]), name

    def test_loss_with_shared_encoding_equals_fresh(self):
        """A greedy decode leaves its encoding as the loss needs it."""
        model = random_model(11)
        rng = random.Random(11)
        sources, targets = random_sentences(rng, 5), random_sentences(rng, 5)
        scale = np.full(5, 1.0 / 5)
        fresh = model.loss_and_grads(model.encode(sources), targets, scale)
        enc = model.encode(sources)
        greedy_decode_batch(model, enc)
        shared = model.loss_and_grads(enc, targets, scale)
        assert np.array_equal(fresh[0], shared[0]) and fresh[2] == shared[2]
        for name in fresh[1]:
            assert np.array_equal(fresh[1][name], shared[1][name]), name


def reference_adam(params, grad_steps, lr):
    """Adam as it stood with its moments rebuilt by setdefault at every step."""
    m, v = {}, {}
    for t, grads in enumerate(grad_steps, start=1):
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for name, g in grads.items():
            m_ = m.setdefault(name, np.zeros_like(g))
            v_ = v.setdefault(name, np.zeros_like(g))
            m_ *= 0.9
            m_ += (1.0 - 0.9) * g
            v_ *= 0.999
            v_ += (1.0 - 0.999) * g * g
            params[name] -= lr * (m_ / c1) / (np.sqrt(v_ / c2) + 1e-8)


class TestAdam:
    def test_moments_made_once_and_steps_unchanged(self, monkeypatch):
        rng = np.random.default_rng(3)
        shapes = {"W": (4, 3), "b": (3,), "E": (5, 2)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        # Values over many orders of magnitude, so that any reordering shows.
        steps = [
            {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 4, shape) for name, shape in shapes.items()}
            for _ in range(4)
        ]  # fmt: skip
        expected = {name: p.copy() for name, p in start.items()}
        reference_adam(expected, [{k: g.copy() for k, g in grads.items()} for grads in steps], 0.01)
        calls = []
        zeros_like = np.zeros_like

        def counted_zeros_like(a, *args, **kwargs):
            calls.append(a.shape)
            return zeros_like(a, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counted_zeros_like)
        params = {name: p.copy() for name, p in start.items()}
        optimizer = Adam(0.01)
        for grads in steps:
            optimizer.step(params, {k: g.copy() for k, g in grads.items()})
        monkeypatch.undo()
        for name in shapes:
            assert np.array_equal(params[name], expected[name]), name
        assert sorted(calls) == sorted(list(shapes.values()) * 2)  # m and v, once per parameter


def reference_margin(judge, sentence):
    counts = reference_feature_counts(sentence.text, judge.dim)
    norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
    return sum(judge.weights[i] * v for i, v in counts.items()) / norm


def reference_feature_counts(text, dim):
    """The judge's per-gram loop: each 1- to 4-gram's zlib.crc32 % dim, counted in first-occurrence order."""
    padded = "\x02" + text + "\x03"
    counts = {}
    for n in range(1, 5):
        for i in range(len(padded) - n + 1):
            idx = zlib.crc32(padded[i : i + n].encode("utf-8")) % dim
            counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def reference_featurize(sentences, dim):
    """featurize with lists of Python numbers: its indptr, indices and data."""
    indptr = [0]
    indices = []
    data = []
    for sentence in sentences:
        counts = reference_feature_counts(sentence.text, dim)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        for idx in sorted(counts):
            indices.append(idx)
            data.append(counts[idx] / norm)
        indptr.append(len(indices))
    return np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64), np.array(data)


def csr(indptr, indices, data, dim):
    """The rows as a scipy matrix, whose products are the oracle for the kernels."""
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, dim))


def reference_grad(w, b0, b1, x, y, l2):
    """logistic_grad on a scipy matrix, with scipy's products x @ w and x.T @ g."""
    d = x @ w + (b1 - b0)
    g = reference_sigmoid(d) - y
    gw = (x.T @ g) / len(y) + l2 * w
    gb = float(g.mean())
    return gw, -gb, gb


def reference_loss(w, b0, b1, x, y, l2):
    """logistic_loss on a scipy matrix."""
    d = x @ w + (b1 - b0)
    per = np.logaddexp(0.0, -d) + (1.0 - y) * d
    return float(per.mean() + 0.5 * l2 * float(w @ w))


def reference_train_judge(train, dev, cfg):
    """train_judge on all dim columns of a scipy matrix, with its dev accuracy spelled out."""
    x = csr(*reference_featurize([inst.sentence for inst in train], cfg.dim), cfg.dim)
    y = np.array([float(inst.label) for inst in train])
    w = np.zeros(cfg.dim)
    b0 = b1 = 0.0
    n = len(train)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            gw, gb0, gb1 = reference_grad(w, b0, b1, x[batch], y[batch], cfg.l2)
            w -= cfg.lr * gw
            b0 -= cfg.lr * gb0
            b1 -= cfg.lr * gb1
    loss = reference_loss(w, b0, b1, x, y, cfg.l2)
    correct = 0
    for inst in dev:
        counts = reference_feature_counts(inst.sentence.text, cfg.dim)
        norm = math.sqrt(sum(v * v for v in counts.values())) or 1.0
        margin = sum(w[i] * v for i, v in counts.items()) / norm
        correct += (1 if margin + b1 > b0 else 0) == inst.label
    return w, b0, b1, loss, correct / len(dev)


JUDGE_WORDS = ("the", "cat", "sat", "mat", "naïve", "café", "straße", "日本語", "ёж", "😀", ",", ".")


def judge_corpus(seed, count):
    """Labelled sentences with an empty one first and non-ASCII words throughout."""
    rng = random.Random(seed)
    instances = [ColaInstance(Sentence(()), 1)]
    for _ in range(count - 1):
        tokens = tuple(rng.choice(JUDGE_WORDS) for _ in range(rng.randint(1, 8)))
        instances.append(ColaInstance(Sentence(tokens), int("😀" not in tokens and len(tokens) % 3 != 0)))
    return instances


class TestCompactJudgeTraining:
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("dim", [16, 4096, 2**16])
    def test_equals_full_width_training(self, dim, batch_size):
        train, dev = judge_corpus(dim + batch_size, 90), judge_corpus(-dim - batch_size, 30)
        cfg = JudgeConfig(dim=dim, epochs=3, lr=8.0, l2=0.2, batch_size=batch_size, seed=batch_size)
        w, b0, b1, loss, dev_acc = reference_train_judge(train, dev, cfg)
        model = train_judge(train, cfg)
        assert np.array_equal(model.weights, w)
        assert model.bias0 == b0 and model.bias1 == b1
        assert model.train_loss == loss and acc(evaluate_judge(model, dev)) == dev_acc
        if dim == 16:  # every column touched, with hash collisions
            cols, _ = _touched_columns(featurize([inst.sentence for inst in train], dim))
            assert np.array_equal(cols, np.arange(dim))

    @pytest.mark.parametrize("dim", [16, 4096, 2**16])
    def test_compact_matrix_is_the_touched_columns_in_order(self, dim):
        sentences = [inst.sentence for inst in judge_corpus(3, 50)]
        x, ref = featurize(sentences, dim), featurize(sentences, dim)
        cols, xc = _touched_columns(x)
        assert np.all(np.diff(cols) > 0)
        assert xc.shape == (ref.shape[0], len(cols))
        within_row = np.ones(len(xc.indices) - 1, dtype=bool)
        within_row[xc.indptr[1:-1] - 1] = False
        assert np.all(np.diff(xc.indices)[within_row] > 0)
        assert np.array_equal(xc.indptr, ref.indptr) and np.array_equal(xc.data, ref.data)
        assert np.array_equal(cols[xc.indices], ref.indices)
        dense = csr(ref.indptr, ref.indices, ref.data, dim).toarray()
        assert np.array_equal(csr(xc.indptr, xc.indices, xc.data, len(cols)).toarray(), dense[:, cols])
        assert not np.delete(dense, cols, axis=1).any()
        # The compact rows share x's storage; mapping back restores x.
        _map_columns(x, cols)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(x, name), getattr(ref, name)), name

    @pytest.mark.parametrize("dim", [16, 4096, 2**18])
    def test_featurize_equals_list_based(self, dim):
        sentences = [inst.sentence for inst in judge_corpus(5, 40)]
        got, ref = featurize(sentences, dim), reference_featurize(sentences, dim)
        assert got.shape == (len(sentences), dim) and got.dim == dim
        for name, b in zip(("indptr", "indices", "data"), ref):
            a = getattr(got, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert featurize([], dim).shape == (0, dim)

    def test_loss_sees_the_full_width_weights(self, monkeypatch):
        """w @ w can group its sums differently on the compact vector."""
        shapes = []

        def recording_loss(w, b0, b1, x, y, l2):
            shapes.append((w.shape, x.shape))
            return logistic_loss(w, b0, b1, x, y, l2)

        monkeypatch.setattr(judge_mod, "logistic_loss", recording_loss)
        train = judge_corpus(14, 40)
        train_judge(train, JudgeConfig(dim=4096, epochs=1))
        assert shapes == [((4096,), (len(train), 4096))]

    def test_tracer_counts_keep_their_meaning(self, monkeypatch):
        """One logistic_grad call per minibatch and one featurize call over the training rows."""
        grads, rows = [], []

        def counting_grad(*args, **kwargs):
            grads.append(1)
            return logistic_grad(*args, **kwargs)

        def counting_featurize(sentences, dim):
            rows.append(len(sentences))
            return featurize(sentences, dim)

        monkeypatch.setattr(judge_mod, "logistic_grad", counting_grad)
        monkeypatch.setattr(judge_mod, "featurize", counting_featurize)
        train = judge_corpus(12, 75)
        cfg = JudgeConfig(dim=512, epochs=3, batch_size=7)
        train_judge(train, cfg)
        assert len(grads) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)
        assert rows == [len(train)]


# Empty, one-character, ASCII and 2-, 3- and 4-byte UTF-8 texts.
NGRAM_TEXTS = ("", "a", "é", "日", "😀", "the cat sat .", "naïve café straße", "日本語 ёж 😀😀", "a a a a a a")


def ngram_sentences():
    """NGRAM_TEXTS, then enough corpus sentences to fill several hash blocks."""
    extra = [inst.sentence for inst in judge_corpus(21, 2 * _HASH_BLOCK + 7)]
    return [Sentence(tuple(text.split())) for text in NGRAM_TEXTS] + extra


_WEIGHTS = {}


def judge_of_dim(dim):
    """A judge with fixed random weights, one per dim."""
    if dim not in _WEIGHTS:
        _WEIGHTS[dim] = np.random.default_rng(dim).normal(0.0, 3.0, dim)
    return JudgeModel(weights=_WEIGHTS[dim], bias0=0.1, bias1=-0.2, dim=dim)


def assert_hashes_as_the_loop(sentences, dim):
    """featurize's arrays, and the judge's margins and scores, equal the per-gram loop's.

    The margins of one call equal those of one text at a time, bit for bit.
    """
    got, ref = featurize(sentences, dim), reference_featurize(sentences, dim)
    for name, b in zip(("indptr", "indices", "data"), ref):
        a = getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    judge = judge_of_dim(dim)
    margins = [reference_margin(judge, s) for s in sentences]
    assert np.array_equal(judge.margins(sentences), margins)
    assert np.array_equal([judge.margins([s])[0] for s in sentences], margins)
    scores = [cola_score(Logits(judge.bias0, m + judge.bias1)).value for m in margins]
    # Repeated texts in one call are scored each time.
    assert judge.scores(sentences + sentences[:3]) == scores + scores[:3]


class TestHashedNgrams:
    """The numpy n-gram hash against the per-gram zlib.crc32 loop it replaced."""

    @pytest.mark.parametrize("dim", [1, 2**16, 2**18])
    def test_equals_the_loop(self, dim):
        sentences = ngram_sentences()
        assert_hashes_as_the_loop(sentences + sentences[: len(NGRAM_TEXTS)], dim)  # repeats too

    def test_one_text_at_a_time_equals_the_loop(self):
        sentences = ngram_sentences()[:40]
        judge = judge_of_dim(2**16)
        margins = [judge.margins([s])[0] for s in sentences]
        assert margins == [reference_margin(judge, s) for s in sentences]

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.text(st.characters(), max_size=12).map(lambda t: Sentence(tuple(t.split()))), max_size=5),
        st.sampled_from([1, 97, 2**16]),
    )
    def test_drawn_unicode_text(self, sentences, dim):
        assert_hashes_as_the_loop(sentences, dim)


def wide_values(rng, size):
    """Signed values over twelve orders of magnitude, so that any change of summation order shows."""
    return rng.normal(0.0, 1.0, size) * 10.0 ** rng.integers(-6, 6, size)


def minibatches(n, size, rng):
    order = rng.permutation(n)
    return [order[start : start + size] for start in range(0, n, size)]


class TestRowKernels:
    """The gather, row-sum and scatter kernels against scipy's products, bit for bit.

    The corpus has 300 rows, so _row_sums runs in more than one block on it,
    and its first row is the empty sentence.
    """

    @pytest.fixture(params=[16, 4096, 2**16], ids=lambda dim: f"dim{dim}")
    def rows(self, request):
        dim = request.param
        x = featurize([inst.sentence for inst in judge_corpus(dim, 300)], dim)
        return x, csr(x.indptr, x.indices, x.data, dim)

    @staticmethod
    def batches(n, size, seed):
        """Shuffled minibatches with a short last one, the empty row alone, and a repeated row."""
        return minibatches(n, size, np.random.default_rng(seed)) + [np.array([0]), np.array([5, 0, 5])]

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_take_equals_row_selection(self, rows, size):
        x, sx = rows
        for batch in self.batches(x.shape[0], size, size):
            got, ref = x.take(batch), sx[batch]
            assert got.shape == ref.shape and got.dim == x.dim
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices) and np.array_equal(got.data, ref.data)

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_row_sums_equal_csr_matvec(self, rows, size):
        x, sx = rows
        rng = np.random.default_rng(size)
        w = wide_values(rng, x.dim)
        for batch in self.batches(x.shape[0], size, size + 1):
            assert np.array_equal(_row_sums(x.take(batch), w), sx[batch] @ w)
        assert np.array_equal(_row_sums(x, w), sx @ w)

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_scatter_equals_csc_matvec(self, rows, size):
        x, sx = rows
        rng = np.random.default_rng(size + 2)
        for batch in self.batches(x.shape[0], size, size + 3):
            g = wide_values(rng, len(batch))
            assert np.array_equal(_scatter(x.take(batch), g), sx[batch].T @ g)
        g = wide_values(rng, x.shape[0])
        assert np.array_equal(_scatter(x, g), sx.T @ g)

    def test_grad_and_loss_equal_scipy_kernels(self, rows):
        x, sx = rows
        rng = np.random.default_rng(4)
        w = wide_values(rng, x.dim)
        y = rng.integers(0, 2, x.shape[0]).astype(float)
        for batch in self.batches(x.shape[0], 64, 5):
            got = logistic_grad(w, 0.3, -0.2, x.take(batch), y[batch], 1e-3)
            ref = reference_grad(w, 0.3, -0.2, sx[batch], y[batch], 1e-3)
            assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]
        assert logistic_loss(w, 0.3, -0.2, x, y, 1e-3) == reference_loss(w, 0.3, -0.2, sx, y, 1e-3)


def reference_beam(model, source, beam_size):
    """beam_decode without the early stop: runs until no hypothesis is alive or the step limit."""
    enc = model.encode([source])
    alive_tokens, alive_logps = [()], np.zeros(1)
    alive_states, alive_last = enc.s0, np.full(1, BOS_ID, dtype=np.int64)
    finished, steps = [], 0
    for _ in range(2 * len(source) + 8):
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
            alive_tokens = []
            break
        alive_tokens = [t for t, _, _, _ in nxt]
        alive_logps = np.array([s for _, s, _, _ in nxt])
        alive_states = np.stack([st for _, _, st, _ in nxt])
        alive_last = np.array([tok for _, _, _, tok in nxt], dtype=np.int64)
    for tokens, logp_val in zip(alive_tokens, alive_logps):
        finished.append(Hypothesis(model.vocab.decode(tokens).tokens, float(logp_val), True))
    finished.sort(key=lambda h: (-h.log_prob, h.tokens))
    return finished[:beam_size], steps


def reference_greedy(model, enc):
    """greedy_decode_batch as a per-row loop: each row's ids up to its EOS, and which rows ended."""
    batch = len(enc.s0)
    s = enc.s0
    tokens = np.full(batch, BOS_ID, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)
    outputs = [[] for _ in range(batch)]
    for _ in range(2 * int(enc.src_mask.sum(axis=1).max(initial=0)) + 8):
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
    return outputs, done


class TestGreedyRows:
    def test_equals_per_row_loop(self):
        rng = random.Random(5)
        seen = set()
        for seed in range(20):
            model = random_model(seed, embed_dim=4, hidden_dim=6)
            # Favour one token per model, so that every kind of row occurs.
            favoured = (None, PAD_ID, BOS_ID, UNK_ID, EOS_ID)[seed % 5]
            if favoured is not None:
                model.params["out_b"][favoured] += 1.5
            enc = model.encode(random_sentences(rng, 6))
            ids, done = reference_greedy(model, enc)
            assert greedy_decode_batch(model, enc) == [model.vocab.decode(row) for row in ids]
            seen.update(tok for row in ids for tok in row if tok in (PAD_ID, BOS_ID, UNK_ID))
            seen.update(["ended", "step limit"] if done.any() and not done.all() else [])
        assert seen == {PAD_ID, BOS_ID, UNK_ID, "ended", "step limit"}


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
        models = [random_model(seed, embed_dim=4, hidden_dim=6) for seed in range(13)]
        for model in models[:-1]:
            model.params["out_b"][EOS_ID] += 2.0  # finish early enough to stop before the limit
        # The last model gives every token the same score, so every candidate ties.
        models[-1].params["out_W"][:] = 0.0
        models[-1].params["out_b"][:] = 0.0
        for model in models:
            for source in random_sentences(rng, 4):
                for beam_size in (1, 2, 4):
                    expected, ref_steps = reference_beam(model, source, beam_size)
                    calls.clear()
                    assert beam_decode(model, source, beam_size) == expected
                    assert len(calls) <= ref_steps
                    saved_steps += ref_steps - len(calls)
        assert saved_steps > 0
