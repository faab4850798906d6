"""Tests for the ablation grid."""

import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import geckit.experiment
from geckit.errors import ConfigError, EmptyEvaluation, InvalidLogits
from geckit.evalmetrics import Prf, evaluate_hypotheses
from geckit.experiment import AblationVariant, ablation_run, mean_prf
from geckit.gec import (
    DYNAMIC,
    PLAIN_CE,
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
from geckit.judge import Logits, cola_score
from geckit.textcore import OTHER, AnnotatedPair, Edit, Sentence


TOY_WORDS = ("alpha", "bravo", "carol", "delta", "echo")


def toy_pairs(n, seed):
    """Single-corruption pairs: one token replaced by an out-of-list marker."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        length = int(rng.integers(3, 6))
        tokens = [TOY_WORDS[int(i)] for i in rng.integers(0, len(TOY_WORDS), length)]
        pos = int(rng.integers(0, length))
        src = list(tokens)
        src[pos] = "zz"
        fix = Edit(pos, pos + 1, (tokens[pos],), OTHER)
        pairs.append(AnnotatedPair.from_edits(Sentence(tuple(src)), (fix,)))
    return pairs


class FlatJudge:
    """Indifferent judge; exercises the dynamic and rerank code paths."""

    dev_accuracy = 0.9

    def logits(self, sentence):
        return Logits(0.0, 0.0)

    def score(self, sentence):
        return cola_score(self.logits(sentence))


@pytest.fixture(scope="module")
def toy_task():
    stage = TrainStage(pairs=tuple(toy_pairs(48, seed=11)), epochs=5, lr=0.05, batch_size=16)
    return stage, toy_pairs(16, seed=12), ModelConfig(embed_dim=8, hidden_dim=12)


@pytest.fixture(scope="module")
def toy_report(toy_task):
    stage, test, config = toy_task
    variants = (
        AblationVariant("plain"),
        AblationVariant("dynamic_rerank", loss=DYNAMIC, rerank=True, beam_size=3),
    )
    return ablation_run(variants, stage, test, config, judge=FlatJudge(), seeds=(0, 1))


class TestAblation:
    def test_needs_two_variants(self, toy_task):
        stage, test, config = toy_task
        with pytest.raises(ConfigError):
            ablation_run([AblationVariant("only")], stage, test, config)

    def test_duplicate_names_rejected(self, toy_task):
        stage, test, config = toy_task
        variants = [AblationVariant("same"), AblationVariant("same", rerank=True)]
        with pytest.raises(ConfigError, match="same"):
            ablation_run(variants, stage, test, config, judge=FlatJudge())

    def test_duplicate_seeds_rejected(self, toy_task):
        stage, test, config = toy_task
        variants = [AblationVariant("a"), AblationVariant("b")]
        with pytest.raises(ConfigError):
            ablation_run(variants, stage, test, config, seeds=(3, 3))

    def test_dynamic_needs_judge(self, toy_task):
        stage, test, config = toy_task
        variants = [AblationVariant("a"), AblationVariant("b", loss=DYNAMIC)]
        with pytest.raises(ConfigError, match="judge"):
            ablation_run(variants, stage, test, config)

    def test_rerank_needs_judge(self, toy_task):
        stage, test, config = toy_task
        variants = [AblationVariant("a"), AblationVariant("b", rerank=True)]
        with pytest.raises(ConfigError, match="judge"):
            ablation_run(variants, stage, test, config)

    def test_unknown_loss_rejected(self, toy_task):
        stage, test, config = toy_task
        variants = [AblationVariant("a"), AblationVariant("b", loss="focal")]
        with pytest.raises(ConfigError):
            ablation_run(variants, stage, test, config, seeds=(0,))

    def test_bad_variants(self):
        with pytest.raises(ConfigError):
            AblationVariant("")
        with pytest.raises(ConfigError):
            AblationVariant("x", beam_size=0)
        with pytest.raises(ConfigError):
            AblationVariant("x", rerank_lam=-0.1)

    def test_mean_prf_empty(self):
        with pytest.raises(EmptyEvaluation):
            mean_prf([])

    def test_report_shape(self, toy_report):
        assert toy_report.variants == ("plain", "dynamic_rerank")
        assert toy_report.seeds == (0, 1)
        for name in toy_report.variants:
            assert len(toy_report.per_seed[name]) == 2
            assert toy_report.means[name] == mean_prf(toy_report.per_seed[name])
            for scores in toy_report.per_seed[name]:
                assert 0.0 <= scores.f05 <= 1.0

    def test_render_table(self, toy_report):
        lines = toy_report.render_table().splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["variant", "P", "R", "F0.5"]
        for line in lines[1:]:
            cells = line.split()
            assert len(cells) == 4
            assert all(0.0 <= float(c) <= 100.0 for c in cells[1:])

    def test_json_dict_recomputable(self, toy_report):
        data = json.loads(json.dumps(toy_report.to_json_dict()))
        assert data["seeds"] == [0, 1]
        for name in toy_report.variants:
            entry = data["variants"][name]
            per_seed = entry["per_seed"]
            assert [row["seed"] for row in per_seed] == [0, 1]
            recomputed = sum(row["f0.5"] for row in per_seed) / len(per_seed)
            assert entry["f0.5"] == pytest.approx(recomputed, abs=0.01)

    def test_deterministic(self, toy_task):
        stage, test, config = toy_task
        variants = (AblationVariant("plain"), AblationVariant("beam", rerank=True, beam_size=2))
        runs = [
            ablation_run(variants, stage, test, config, judge=FlatJudge(), seeds=(7,))
            for _ in range(2)
        ]
        assert runs[0].per_seed == runs[1].per_seed

    def test_variants_sharing_a_loss_share_one_model(self, toy_task, monkeypatch, tmp_path):
        stage, test, config = toy_task
        judge = FlatJudge()
        variants = (
            AblationVariant("plain"),
            AblationVariant("plain+rerank", rerank=True, beam_size=2),
            AblationVariant("dyn", loss=DYNAMIC),
            AblationVariant("dyn+rerank", loss=DYNAMIC, rerank=True, beam_size=2),
        )
        seeds = (0, 1)
        # The groups may train in worker processes: each call appends one line.
        calls_file = tmp_path / "train_gec_calls"

        def counting_train_gec(*args, **kwargs):
            fd = os.open(calls_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{kwargs['seed']}\n".encode())
            finally:
                os.close(fd)
            return train_gec(*args, **kwargs)

        monkeypatch.setattr(geckit.experiment, "train_gec", counting_train_gec)
        report = ablation_run(variants, stage, test, config, judge=judge, seeds=seeds)
        calls = [int(line) for line in calls_file.read_text(encoding="utf-8").split()]
        assert sorted(calls) == [0, 0, 1, 1]

        # Reference: a fresh model for every (variant, seed) cell.
        sentences = [p.source for p in stage.pairs] + [p.target for p in stage.pairs]
        vocab = Vocab.from_sentences(sentences)
        sources = [pair.source for pair in test]
        for variant in variants:
            expected = []
            for seed in seeds:
                model = Seq2SeqModel(vocab, replace(config, seed=seed))
                train_gec(model, replace(stage, loss=variant.loss), judge=judge, seed=seed)
                if variant.rerank:
                    decoded = [
                        rerank_with_cola(
                            beam_decode(model, src, variant.beam_size), judge, variant.rerank_lam
                        )
                        for src in sources
                    ]
                else:
                    decoded = greedy_decode_batch(model, sources)
                r = evaluate_hypotheses(decoded, test)
                expected.append(Prf(r.precision, r.recall, r.f05))
            assert report.per_seed[variant.name] == tuple(expected)

    def test_per_seed_follows_the_seed_order(self, toy_task):
        stage, test, config = toy_task
        judge = FlatJudge()
        variants = (
            AblationVariant("plain"),
            AblationVariant("dyn", loss=DYNAMIC),
            AblationVariant("plain+rerank", rerank=True, beam_size=2),
        )
        seeds = (3, 1, 2)
        report = ablation_run(variants, stage, test, config, judge=judge, seeds=seeds)
        assert report.seeds == seeds

        # Reference: the same (seed, loss) groups, one after another in this process.
        vocab = Vocab.from_pairs(stage.pairs)
        sources = [pair.source for pair in test]
        expected = {variant.name: [] for variant in variants}
        for seed in seeds:
            for loss in (PLAIN_CE, DYNAMIC):
                model = Seq2SeqModel(vocab, replace(config, seed=seed))
                train_gec(model, replace(stage, loss=loss), judge=judge, seed=seed)
                for variant in variants:
                    if variant.loss != loss:
                        continue
                    if variant.rerank:
                        decoded = decode(
                            model, sources, variant.beam_size, judge, variant.rerank_lam
                        )
                    else:
                        decoded = decode(model, sources)
                    r = evaluate_hypotheses(decoded, test)
                    expected[variant.name].append(Prf(r.precision, r.recall, r.f05))
        assert report.per_seed == {name: tuple(rows) for name, rows in expected.items()}

    def test_error_in_a_group_reaches_the_caller(self, toy_task):
        class RaisingJudge(FlatJudge):
            def logits(self, sentence):
                raise InvalidLogits("non-finite logits (nan, 0.0)")

        stage, test, config = toy_task
        variants = (AblationVariant("plain"), AblationVariant("dyn", loss=DYNAMIC))
        with pytest.raises(InvalidLogits) as excinfo:
            ablation_run(variants, stage, test, config, judge=RaisingJudge(), seeds=(0, 1))
        assert type(excinfo.value) is InvalidLogits
        assert str(excinfo.value) == "non-finite logits (nan, 0.0)"
        assert multiprocessing.active_children() == []
