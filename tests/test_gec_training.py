"""Tests for decoding strategies, reranking, and training."""

import json
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from geckit.errors import ConfigError
from geckit.gec import (
    DYNAMIC,
    DYNAMIC_LR_MULTIPLIER,
    EOS_ID,
    Hypothesis,
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    beam_decode,
    decode,
    greedy_decode_batch,
    rerank_with_cola,
    train_gec,
)
from geckit.judge import JudgeModel, Logits, cola_score
from geckit.textcore import OTHER, AnnotatedPair, Edit, Sentence

WORDS = ("a", "b", "c", "d", "e", "f", "g", "h")


def sent(text):
    return Sentence(tuple(text.split()))


def copy_pairs(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s = Sentence(tuple(rng.choice(WORDS) for _ in range(rng.randint(3, 7))))
        out.append(AnnotatedPair(source=s, gold=((),), annotator_ids=(0,)))
    return out


def swap_pairs(n, seed):
    """Toy correction task: every 'aa' token should become 'bb'."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        tokens = [rng.choice(WORDS) for _ in range(rng.randint(3, 6))]
        position = rng.randrange(len(tokens))
        tokens[position] = "aa"
        source = Sentence(tuple(tokens))
        edit = Edit(position, position + 1, ("bb",), OTHER)
        out.append(AnnotatedPair.from_edits(source, [edit]))
    return out


@dataclass
class ConstantJudge:
    """Scores every sentence identically; stands in for a trained judge."""

    value: float
    dev_accuracy: float

    def score(self, sentence):
        return type("Score", (), {"value": self.value})()

    def scores(self, sentences):
        return [self.value for _ in sentences]


class TableJudge:
    """Acceptability lookup keyed by sentence text; unknown text scores 0.5."""

    def __init__(self, table, dev_accuracy=1.0):
        self.table = table
        self.dev_accuracy = dev_accuracy

    def logits(self, sentence):
        # High logit0 marks the sentence as bad.
        return Logits(self.table.get(sentence.text, 0.0), 0.0)

    def score(self, sentence):
        return cola_score(self.logits(sentence))

    def scores(self, sentences):
        return [self.score(s).value for s in sentences]


@pytest.fixture(scope="module")
def copy_model():
    train = copy_pairs(300, 1)
    vocab = Vocab.from_sentences([p.source for p in train])
    model = Seq2SeqModel(vocab, ModelConfig(embed_dim=16, hidden_dim=32, seed=0))
    stage = TrainStage(pairs=tuple(train), epochs=50, lr=0.02)
    log = train_gec(model, stage)
    return model, log


class TestGreedyAndBeam:
    def test_copy_task_exact_match(self, copy_model):
        model, _ = copy_model
        dev = copy_pairs(100, 2)
        decoded = greedy_decode_batch(model, model.encode([p.source for p in dev]))
        exact = sum(d.tokens == p.target.tokens for d, p in zip(decoded, dev)) / len(dev)
        assert exact >= 0.99

    def test_beam_one_equals_greedy(self, copy_model):
        model, _ = copy_model
        for pair in copy_pairs(25, 3):
            greedy = greedy_decode_batch(model, model.encode([pair.source]))[0]
            beam = beam_decode(model, pair.source, beam_size=1)
            assert len(beam) == 1
            assert beam[0].tokens == greedy.tokens
            assert not beam[0].truncated

    def test_beam_sorted_and_unique_scores_descending(self, copy_model):
        model, _ = copy_model
        for source in (sent("a b c d"), *(p.source for p in copy_pairs(10, 4))):
            limit = 2 * len(source) + 8
            for beam_size in (1, 2, 4):
                hyps = beam_decode(model, source, beam_size=beam_size)
                assert 1 <= len(hyps) <= beam_size
                keys = [(-h.log_prob, h.tokens) for h in hyps]
                assert keys == sorted(keys)
                assert all(h.log_prob <= 0.0 for h in hyps)
                assert len({h.tokens for h in hyps}) == len(hyps)
                for h in hyps:
                    assert h.truncated == (len(h.tokens) == limit)

    def test_beam_deterministic(self, copy_model):
        model, _ = copy_model
        a = beam_decode(model, sent("c d e f"), beam_size=4)
        b = beam_decode(model, sent("c d e f"), beam_size=4)
        assert a == b

    @staticmethod
    def untrained(source):
        # An untrained model rarely emits EOS, so its searches hit the
        # fixed step limit of 2 * |source| + 8 tokens.
        model = Seq2SeqModel(Vocab.from_sentences([source]), ModelConfig(embed_dim=4, hidden_dim=4))
        return model, 2 * len(source) + 8

    def test_max_len_truncates_and_flags(self):
        source = sent("a b c d e f")
        model, limit = self.untrained(source)
        hyps = beam_decode(model, source, beam_size=2)
        assert any(h.truncated for h in hyps)
        for h in hyps:
            assert h.truncated == (len(h.tokens) == limit)

    def test_greedy_respects_max_len(self):
        source = sent("a b c d e f")
        model, limit = self.untrained(source)
        assert len(greedy_decode_batch(model, model.encode([source]))[0]) <= limit

    @pytest.mark.parametrize("text", ["a b c d e f", ""])
    def test_greedy_runs_to_the_step_limit(self, text, monkeypatch):
        """Without EOS a batch decodes 2 * its longest source + 8 steps, an empty source included."""
        source = sent(text)
        model, limit = self.untrained(source)
        model.params["out_b"][EOS_ID] = -1e3
        steps = []
        decode_step = Seq2SeqModel.decode_step
        monkeypatch.setattr(
            Seq2SeqModel, "decode_step", lambda self, *args: steps.append(1) or decode_step(self, *args)
        )
        greedy_decode_batch(model, model.encode([source, Sentence(())]))
        assert len(steps) == limit

    def test_empty_source_decodes(self, copy_model):
        model, _ = copy_model
        decoded = greedy_decode_batch(model, model.encode([Sentence(())]))[0]
        assert isinstance(decoded, Sentence)

    def test_bad_args(self, copy_model):
        model, _ = copy_model
        with pytest.raises(ConfigError):
            beam_decode(model, sent("a b"), beam_size=0)

    def test_beam_at_most_the_vocabulary(self):
        source = sent("a b")
        model, _ = self.untrained(source)
        assert len(beam_decode(model, source, beam_size=len(model.vocab))) == len(model.vocab)
        for wide in (len(model.vocab) + 1, 10**20):
            with pytest.raises(ConfigError, match="exceeds the vocabulary"):
                beam_decode(model, source, beam_size=wide)
            with pytest.raises(ConfigError, match="exceeds the vocabulary"):
                decode(model, [source], beam_size=wide)


class TestRerank:
    def hyps(self, copy_model):
        model, _ = copy_model
        return beam_decode(model, sent("a b c d"), beam_size=4)

    def test_lam_zero_keeps_decoder_ranking(self, copy_model):
        hyps = self.hyps(copy_model)
        judge = TableJudge({hyps[0].sentence().text: 50.0})
        picked = rerank_with_cola(hyps, judge, lam=0.0)
        assert picked.tokens == hyps[0].tokens

    def test_large_lam_prefers_acceptable(self, copy_model):
        hyps = self.hyps(copy_model)
        assume_distinct = len({h.tokens for h in hyps}) > 1
        if not assume_distinct:
            pytest.skip("beam collapsed to one candidate")
        # Mark the top hypothesis as unacceptable, everything else as fine.
        judge = TableJudge({hyps[0].sentence().text: 50.0})
        picked = rerank_with_cola(hyps, judge, lam=100.0)
        assert picked.tokens != hyps[0].tokens

    def test_tie_keeps_higher_rank(self):
        judge = TableJudge({})
        hyps = [
            Hypothesis(tokens=("a", "b"), log_prob=-1.0),
            Hypothesis(tokens=("c", "d"), log_prob=-1.0),
        ]
        # Same length, same log-prob, same judge score: keep rank order.
        picked = rerank_with_cola(hyps, judge, lam=1.0)
        assert picked.tokens == ("a", "b")

    def test_log_prob_is_divided_by_length(self):
        """The mean log-prob per token ranks: the longer hypothesis has the higher mean."""
        hyps = [
            Hypothesis(tokens=("a",), log_prob=-2.0),
            Hypothesis(tokens=("a", "b", "c", "d"), log_prob=-4.0),
        ]
        # Means -2 and -1. The raw sums (-2, -4), or the sums times the lengths
        # (-2, -16), would keep the first.
        picked = rerank_with_cola(hyps, ConstantJudge(0.5, 1.0), lam=0.5)
        assert picked.tokens == ("a", "b", "c", "d")

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            rerank_with_cola([], ConstantJudge(0.5, 1.0), lam=0.5)


class TestDecode:
    """decode is the one dispatch over greedy, beam and judge-reranked beam."""

    LAM = 100.0  # large enough for the judge to overrule the decoder

    @pytest.fixture(scope="class")
    def sources(self):
        return [pair.source for pair in copy_pairs(20, 5)]

    @pytest.fixture(scope="class")
    def table_judge(self, copy_model, sources):
        # Mark every greedy output unacceptable so reranking has work to do.
        model, _ = copy_model
        return TableJudge({d.text: 50.0 for d in greedy_decode_batch(model, model.encode(sources))})

    @pytest.mark.parametrize("beam_size", [1, 4])
    @pytest.mark.parametrize("with_judge", [False, True])
    def test_equals_spelled_out_calls(self, copy_model, sources, table_judge, beam_size, with_judge):
        model, _ = copy_model
        judge = table_judge if with_judge else None
        if with_judge:
            expected = [
                rerank_with_cola(beam_decode(model, src, beam_size), judge, self.LAM)
                for src in sources
            ]
        elif beam_size == 1:
            expected = greedy_decode_batch(model, model.encode(sources))
        else:
            expected = [beam_decode(model, src, beam_size)[0].sentence() for src in sources]
        lam = self.LAM if with_judge else 0.5  # without a judge only the default is accepted
        assert decode(model, sources, beam_size, judge, lam) == expected

    def test_judge_changes_beam_choice(self, copy_model, sources, table_judge):
        model, _ = copy_model
        assert decode(model, sources, 4, table_judge, self.LAM) != decode(model, sources, 4)

    @pytest.mark.parametrize("beam_size", [1, 4])
    @pytest.mark.parametrize("with_judge", [False, True])
    def test_empty_sources(self, copy_model, table_judge, beam_size, with_judge):
        model, _ = copy_model
        assert decode(model, [], beam_size, table_judge if with_judge else None) == []


class TestDecodeValidation:
    def test_lam_without_judge_rejected(self, copy_model):
        model, _ = copy_model
        sources = [sent("a b c")]
        with pytest.raises(ConfigError, match="needs a judge"):
            decode(model, sources, 4, lam=1.0)
        with pytest.raises(ConfigError, match="needs a judge"):
            decode(model, [], 1, None, float("nan"))
        assert decode(model, sources, 1, lam=0.5) == decode(model, sources)


class TestTrainValidation:
    def test_dynamic_without_judge_rejected(self):
        pairs = tuple(copy_pairs(4, 0))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=4, hidden_dim=4))
        stage = TrainStage(pairs=pairs, epochs=1, lr=0.01, loss=DYNAMIC)
        with pytest.raises(ConfigError):
            train_gec(model, stage)

    def test_judge_without_dev_accuracy_rejected(self):
        pairs = tuple(copy_pairs(4, 0))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=4, hidden_dim=4))
        stage = TrainStage(pairs=pairs, epochs=1, lr=0.01, loss=DYNAMIC)
        with pytest.raises(ConfigError):
            train_gec(model, stage, judge=ConstantJudge(0.5, dev_accuracy=None))

    def test_bad_stage_configs(self):
        pairs = tuple(copy_pairs(2, 0))
        with pytest.raises(ConfigError):
            TrainStage(pairs=(), epochs=1, lr=0.1)
        untargeted = AnnotatedPair(source=sent("a b"), gold=(), annotator_ids=())
        with pytest.raises(ConfigError, match="without a target sentence"):
            TrainStage(pairs=pairs + (untargeted,), epochs=1, lr=0.1)
        with pytest.raises(ConfigError):
            TrainStage(pairs=pairs, epochs=0, lr=0.1)
        with pytest.raises(ConfigError):
            TrainStage(pairs=pairs, epochs=1, lr=0.1, loss="focal")


class TestTrainingRuns:
    def test_deterministic_log(self):
        pairs = tuple(copy_pairs(40, 5))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        logs = []
        for _ in range(2):
            model = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=2))
            stage = TrainStage(pairs=pairs, epochs=3, lr=0.02)
            logs.append(train_gec(model, stage).to_jsonl())
        assert logs[0] == logs[1]

    def test_log_schema(self):
        pairs = tuple(swap_pairs(30, 1))
        dev = swap_pairs(10, 2)
        vocab = Vocab.from_sentences([p.source for p in pairs] + [p.target for p in pairs])
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=0))
        stage = TrainStage(pairs=pairs, epochs=2, lr=0.02)
        log = train_gec(model, stage, dev_pairs=dev)
        assert len(log.records) == 2
        for line in log.to_jsonl().splitlines():
            record = json.loads(line)
            assert set(record) == {
                "epoch",
                "mean_loss",
                "mean_weight",
                "dev_f05",
                "lr",
                "clamped_steps",
            }
            assert record["lr"] == 0.02
            assert record["mean_weight"] == 1.0
            assert record["dev_f05"] is not None

    def test_constant_judge_weight_is_global_constant(self):
        pairs = tuple(copy_pairs(24, 9))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=4))
        judge = ConstantJudge(value=0.5, dev_accuracy=0.85)
        stage = TrainStage(pairs=pairs, epochs=2, lr=0.01, loss=DYNAMIC)
        log = train_gec(model, stage, judge=judge)
        expected = math.sqrt(0.85 * 0.5)
        for record in log.records:
            assert record.mean_weight == pytest.approx(expected, abs=1e-12)
            assert record.lr == 0.01 * DYNAMIC_LR_MULTIPLIER  # the logged lr is multiplied

    def test_dynamic_loss_calls_judge_logits_once_per_decode(self, monkeypatch):
        pairs = tuple(copy_pairs(20, 7))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=4, hidden_dim=4, seed=1))
        weights = np.random.default_rng(0).normal(size=64)
        judge = JudgeModel(weights=weights, bias0=0.0, bias1=0.0, dim=64, dev_accuracy=0.9)
        seen = []
        logits = JudgeModel.logits

        def counted(self, sentence, **kwargs):
            seen.append(sentence)
            return logits(self, sentence, **kwargs)

        monkeypatch.setattr(JudgeModel, "logits", counted)
        stage = TrainStage(pairs=pairs, epochs=2, lr=0.01, loss=DYNAMIC, batch_size=8)
        train_gec(model, stage, judge=judge)
        assert len(seen) == len(pairs) * stage.epochs

    def test_unit_weight_reduces_to_plain_bitwise(self):
        pairs = tuple(copy_pairs(24, 10))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        plain = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=6))
        dynamic = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=6))
        common = dict(pairs=pairs, epochs=3, optimizer="sgd", batch_size=8)
        # The dynamic loss multiplies its lr; 0.05 * 2.0 == 0.1 exactly.
        assert 0.05 * DYNAMIC_LR_MULTIPLIER == 0.1
        train_gec(plain, TrainStage(lr=0.1, loss="plain_ce", **common))
        judge = ConstantJudge(value=1.0, dev_accuracy=1.0)
        train_gec(dynamic, TrainStage(lr=0.05, loss=DYNAMIC, **common), judge=judge)
        assert np.array_equal(plain.flat_params(), dynamic.flat_params())

    def test_constant_half_judge_matches_scaled_plain_closely(self):
        pairs = tuple(copy_pairs(24, 12))
        vocab = Vocab.from_sentences([p.source for p in pairs])
        weight = math.sqrt(0.85 * 0.5)
        plain = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=8))
        dynamic = Seq2SeqModel(vocab, ModelConfig(embed_dim=8, hidden_dim=12, seed=8))
        # Clipping would rescale the two runs by different factors and mask
        # the lr/weight equivalence; these gradients stay below GRAD_CLIP.
        train_gec(
            plain,
            TrainStage(pairs=pairs, epochs=2, lr=0.1 * weight, optimizer="sgd"),
        )
        judge = ConstantJudge(value=0.5, dev_accuracy=0.85)
        train_gec(
            dynamic,
            TrainStage(pairs=pairs, epochs=2, lr=0.05, optimizer="sgd", loss=DYNAMIC),
            judge=judge,
        )
        assert np.allclose(plain.flat_params(), dynamic.flat_params(), rtol=1e-9, atol=1e-12)

    def test_swap_task_learns_corrections(self):
        train = tuple(swap_pairs(200, 20))
        dev = swap_pairs(60, 21)
        vocab = Vocab.from_sentences(
            [p.source for p in train] + [p.target for p in train]
        )
        model = Seq2SeqModel(vocab, ModelConfig(embed_dim=16, hidden_dim=32, seed=0))
        stage = TrainStage(pairs=train, epochs=40, lr=0.02)
        log = train_gec(model, stage, dev_pairs=dev)
        assert log.last().dev_f05 >= 0.8
