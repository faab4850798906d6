"""Tests for the acceptability judge and its scoring conventions."""

import dataclasses
import math
import random

import numpy as np
import pytest

from geckit.errors import (
    ConfigError,
    DegenerateCorpus,
    EmptyEvaluation,
    FormatError,
    InvalidLogits,
)
from geckit.judge import (
    ColaScore,
    ConfusionCounts,
    JudgeConfig,
    JudgeModel,
    Logits,
    acc,
    cola_score,
    evaluate_judge,
    featurize,
    logistic_grad,
    logistic_loss,
    mcc,
    train_judge,
)
from geckit.textcore import ColaInstance, Sentence


def sent(text):
    return Sentence(tuple(text.split()))


def trained(train, dev, config):
    """train_judge, then dev_accuracy measured on dev, as train-judge sets it."""
    model = train_judge(train, config)
    return dataclasses.replace(model, dev_accuracy=acc(evaluate_judge(model, dev)))


def make_corpus(n, seed):
    """Separable toy data: label 0 sentences carry a 'zq' marker token."""
    rng = random.Random(seed)
    words = ["red", "blue", "cat", "dog", "runs", "sees", "the", "a"]
    out = []
    for i in range(n):
        tokens = [rng.choice(words) for _ in range(rng.randint(3, 7))]
        label = i % 2
        if label == 0:
            tokens.insert(rng.randrange(len(tokens) + 1), "zq" + rng.choice(words))
        out.append(ColaInstance(Sentence(tuple(tokens)), label))
    return out


class TestColaScore:
    def test_equal_logits_exactly_half(self):
        assert cola_score(Logits(0.0, 0.0)).value == 0.5
        assert cola_score(Logits(-3.7, -3.7)).value == 0.5

    def test_frozen_values(self):
        # sigmoid(3) and sigmoid(-2), independently derived.
        assert cola_score(Logits(3.0, 0.0)).value == pytest.approx(0.952574, abs=5e-7)
        assert cola_score(Logits(0.0, 2.0)).value == pytest.approx(0.119203, abs=5e-7)

    def test_higher_logit0_means_higher_score(self):
        low = cola_score(Logits(0.0, 2.0)).value
        high = cola_score(Logits(2.0, 0.0)).value
        assert high > 0.5 > low

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.uniform(-50, 50)
            b = rng.uniform(-50, 50)
            total = cola_score(Logits(a, b)).value + cola_score(Logits(b, a)).value
            assert abs(total - 1.0) <= 1e-12

    def test_monotone_on_grid(self):
        points = [cola_score(Logits(d, 0.0)).value for d in np.linspace(-20, 20, 1000)]
        assert all(a < b for a, b in zip(points, points[1:]))

    def test_extreme_margins_stay_inside_unit_interval(self):
        assert 0.0 < cola_score(Logits(1e6, 0.0)).value < 1.0
        assert 0.0 < cola_score(Logits(0.0, 1e6)).value < 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidLogits):
            Logits(float("nan"), 0.0)
        with pytest.raises(InvalidLogits):
            Logits(0.0, float("inf"))
        with pytest.raises(InvalidLogits):
            ColaScore(1.0)
        with pytest.raises(InvalidLogits):
            ColaScore(0.0)


def dense(x):
    """The rows as a dense array, each entry written once."""
    out = np.zeros(x.shape)
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    assert len(set(zip(rows.tolist(), x.indices.tolist()))) == len(rows)
    out[rows, x.indices] = x.data
    return out


class TestFeaturize:
    def test_deterministic_and_normalized(self):
        sentences = [sent("the cat sat"), sent("dogs bark loudly")]
        a = featurize(sentences, dim=2**10)
        b = featurize(sentences, dim=2**10)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(dense(a), dense(b))
        norms = np.sqrt((dense(a) ** 2).sum(axis=1))
        assert np.allclose(norms, 1.0)

    def test_empty_sentence_has_features(self):
        x = featurize([Sentence(())], dim=2**10)
        assert np.count_nonzero(dense(x)) > 0

    def test_distinct_texts_differ(self):
        a = featurize([sent("she goes home")], dim=2**18)
        b = featurize([sent("she go home")], dim=2**18)
        assert np.count_nonzero(dense(a) != dense(b)) > 0


class TestLogisticGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        sentences = make_corpus(12, seed=1)
        x = featurize([inst.sentence for inst in sentences], dim=64)
        y = np.array([float(inst.label) for inst in sentences])
        w = rng.normal(0, 0.5, 64)
        b0, b1 = 0.3, -0.2
        l2 = 1e-3
        gw, gb0, gb1 = logistic_grad(w, b0, b1, x, y, l2)
        h = 1e-6
        for idx in rng.choice(64, size=12, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (logistic_loss(wp, b0, b1, x, y, l2) - logistic_loss(wm, b0, b1, x, y, l2)) / (2 * h)
            assert abs(fd - gw[idx]) <= 1e-4 * max(1.0, abs(fd))
        fd0 = (logistic_loss(w, b0 + h, b1, x, y, l2) - logistic_loss(w, b0 - h, b1, x, y, l2)) / (2 * h)
        fd1 = (logistic_loss(w, b0, b1 + h, x, y, l2) - logistic_loss(w, b0, b1 - h, x, y, l2)) / (2 * h)
        assert abs(fd0 - gb0) <= 1e-4 * max(1.0, abs(fd0))
        assert abs(fd1 - gb1) <= 1e-4 * max(1.0, abs(fd1))


class TestJudgeConfig:
    def test_accepts_the_smallest_dim_and_no_l2(self):
        assert JudgeConfig(dim=4).dim == 4
        assert JudgeConfig(l2=0).l2 == 0

    @pytest.mark.parametrize("field", [{"dim": 3}, {"lr": 0}], ids=["dim=3", "lr=0"])
    def test_refuses_the_value_below_the_boundary(self, field):
        with pytest.raises(ConfigError):
            JudgeConfig(**field)


class TestTrainJudge:
    def test_single_label_rejected(self):
        only_ones = [ColaInstance(sent(f"fine sentence {i}"), 1) for i in range(4)]
        with pytest.raises(DegenerateCorpus):
            train_judge(only_ones, JudgeConfig())

    def test_learns_separable_data(self):
        train = make_corpus(200, seed=2)
        dev = make_corpus(60, seed=3)
        cfg = JudgeConfig(dim=2**12, epochs=30, batch_size=32, seed=5)
        model = trained(train, dev, cfg)
        assert model.dev_accuracy >= 0.95
        counts = evaluate_judge(model, dev)
        assert acc(counts) == model.dev_accuracy

    def test_deterministic(self):
        train = make_corpus(60, seed=6)
        dev = make_corpus(20, seed=7)
        cfg = JudgeConfig(dim=2**10, epochs=4, batch_size=16, seed=9)
        a = trained(train, dev, cfg)
        b = trained(train, dev, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert (a.bias0, a.bias1) == (b.bias0, b.bias1)
        assert a.dev_accuracy == b.dev_accuracy

    def test_dev_split_is_scored_once(self, monkeypatch):
        """evaluate_judge hashes all of a JudgeModel's instances in one _hashed_ngrams call."""
        import geckit.judge as judge_module

        train = make_corpus(60, seed=6)
        dev = make_corpus(20, seed=7)
        model = trained(train, dev, JudgeConfig(dim=2**10, epochs=4, batch_size=16, seed=9))
        calls = []
        hashed = judge_module._hashed_ngrams
        monkeypatch.setattr(
            judge_module, "_hashed_ngrams", lambda *args: calls.append(args) or hashed(*args)
        )
        assert acc(evaluate_judge(model, dev)) == model.dev_accuracy
        assert calls == [([i.sentence.text for i in dev], model.dim)]

    def test_score_orientation(self):
        train = make_corpus(200, seed=8)
        dev = make_corpus(40, seed=9)
        model = train_judge(train, JudgeConfig(dim=2**12, epochs=8, seed=1))
        bad = [i for i in dev if i.label == 0][0]
        good = [i for i in dev if i.label == 1][0]
        bad_score, good_score = model.scores([bad.sentence, good.sentence])
        assert bad_score > good_score

    def test_empty_sentence_scores(self):
        train = make_corpus(40, seed=10)
        model = train_judge(train, JudgeConfig(dim=2**10, epochs=2, seed=0))
        lg = model.logits(Sentence(()))
        assert math.isfinite(lg.logit0) and math.isfinite(lg.logit1)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        train = make_corpus(60, seed=11)
        model = trained(train, train, JudgeConfig(dim=2**10, epochs=3, seed=2))
        path = tmp_path / "judge.json"
        model.save(path)
        loaded = JudgeModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.dev_accuracy == model.dev_accuracy
        assert loaded.epochs == model.epochs
        probe = sent("the cat zqruns")
        assert loaded.logits(probe) == model.logits(probe)

    def test_weight_at_column_zero_round_trips(self, tmp_path):
        """Column 0 is a column: a judge whose only weight is there loads back equal."""
        weights = np.zeros(16)
        weights[0] = 0.75
        model = JudgeModel(weights=weights, bias0=0.25, bias1=-0.5, dim=16)
        path = tmp_path / "judge.json"
        model.save(path)
        loaded = JudgeModel.load(path)
        assert np.array_equal(loaded.weights, weights)
        assert (loaded.bias0, loaded.bias1, loaded.dim) == (0.25, -0.5, 16)

    def test_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            JudgeModel.load(path)


class TestModelValue:
    """A model is its dataclass fields; scoring stores nothing on it."""

    def test_weights_are_copied(self):
        weights = np.zeros(64)
        model = JudgeModel(weights=weights, bias0=0.0, bias1=0.0, dim=64)
        weights[:] = 1.0  # the caller's array is not shared
        assert model.margins([sent("a b")]) == [0.0]

    def test_assigning_any_field_raises(self):
        rng = np.random.default_rng(3)
        model = JudgeModel(weights=rng.normal(size=256), bias0=0.0, bias1=0.0, dim=256)
        for field in dataclasses.fields(JudgeModel):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, field.name, getattr(model, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.dim = 128

    def test_scoring_changes_nothing(self):
        train = make_corpus(40, seed=12)
        model = trained(train, train, JudgeConfig(dim=2**10, epochs=2, seed=0))
        before = dict(model.__dict__)
        weights = model.weights.copy()
        assert set(before) == {field.name for field in dataclasses.fields(JudgeModel)}
        model.scores([inst.sentence for inst in train])
        evaluate_judge(model, train)
        assert model.__dict__.keys() == before.keys()
        assert all(model.__dict__[name] is value for name, value in before.items())
        assert np.array_equal(model.weights, weights)

    def test_one_logits_call_per_text(self, monkeypatch):
        """scores and evaluate_judge go through logits once per text, repeats included."""
        data = make_corpus(30, seed=13)
        data += data[:7]
        model = train_judge(data, JudgeConfig(dim=2**10, epochs=2, seed=0))
        seen = []
        logits = JudgeModel.logits

        def counted(self, sentence, **kwargs):
            seen.append(sentence)
            return logits(self, sentence, **kwargs)

        monkeypatch.setattr(JudgeModel, "logits", counted)
        sentences = [inst.sentence for inst in data]
        model.scores(sentences)
        assert seen == sentences
        seen.clear()
        evaluate_judge(model, data)
        assert seen == sentences

    def test_equality_and_hash_are_by_identity(self):
        a = JudgeModel(weights=np.zeros(8), bias0=0.0, bias1=0.0, dim=8)
        b = JudgeModel(weights=np.zeros(8), bias0=0.0, bias1=0.0, dim=8)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


class TestMetrics:
    def test_frozen_confusion_example(self):
        counts = ConfusionCounts(tp=40, fp=5, fn=10, tn=45)
        assert acc(counts) == 0.85
        assert mcc(counts) == 1750 / math.sqrt(6187500)
        assert mcc(counts) == pytest.approx(0.70353, abs=5e-6)

    def test_zero_denominator_is_zero(self):
        # All predictions positive: tn + fn column empty.
        assert mcc(ConfusionCounts(tp=5, fp=5, fn=0, tn=0)) == 0.0

    def test_empty_counts_raise(self):
        empty = ConfusionCounts(0, 0, 0, 0)
        with pytest.raises(EmptyEvaluation):
            acc(empty)
        with pytest.raises(EmptyEvaluation):
            mcc(empty)

    def test_perfect_and_inverted(self):
        assert mcc(ConfusionCounts(tp=10, fp=0, fn=0, tn=10)) == 1.0
        assert mcc(ConfusionCounts(tp=0, fp=10, fn=10, tn=0)) == -1.0

    def test_evaluate_judge_accepts_a_duck_typed_judge(self):
        table = {"she goes home": Logits(-1.0, 2.5), "she go home": Logits(1.5, -0.5)}

        class TableJudge:
            def logits(self, sentence):
                return table[sentence.text]

        data = [
            ColaInstance(sent("she goes home"), 1),
            ColaInstance(sent("she go home"), 0),
        ]
        counts = evaluate_judge(TableJudge(), data)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 1, 0, 0)

    def test_evaluate_judge_counts_a_tie_as_unacceptable(self):
        class TiedJudge:
            def logits(self, sentence):
                return Logits(0.25, 0.25)

        data = [ColaInstance(sent("she goes home"), 1), ColaInstance(sent("she go home"), 0)]
        counts = evaluate_judge(TiedJudge(), data)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (0, 1, 0, 1)
