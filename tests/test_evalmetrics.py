"""Tests for edit-level scoring, filtering, reports, and the ablation grid."""

import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import geckit.gec
from geckit.errors import ConfigError, EmptyEvaluation, InvalidLogits
from geckit.evalmetrics import (
    DROP_EDITS,
    DROP_SENTENCES,
    AblationVariant,
    MatchCounts,
    Prf,
    ablation_run,
    evaluate_corpus,
    evaluate_hypotheses,
    fbeta,
    filter_eval,
    match_sentence,
    mean_prf,
    prf,
)
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
from geckit.textcore import DET, OTHER, PREP, PUNCT, SVA, AnnotatedPair, Edit, Sentence


def sent(text):
    return Sentence(tuple(text.split()))


def pair_multi(source, annotator_edits):
    """AnnotatedPair with explicit edits per annotator id."""
    ids = tuple(sorted(annotator_edits))
    gold = tuple(tuple(annotator_edits[i]) for i in ids)
    return AnnotatedPair(source=sent(source), target=None, gold=gold, annotator_ids=ids)


class TestPrf:
    def test_frozen_example(self):
        scores = prf(MatchCounts(tp=3, fp=1, fn=2))
        assert scores.precision == 0.75
        assert scores.recall == 0.6
        assert scores.f05 == pytest.approx(0.714286, abs=5e-7)

    def test_zero_conventions(self):
        assert prf(MatchCounts(0, 0, 0)) == prf(MatchCounts(0, 0, 0))
        zero = prf(MatchCounts(tp=0, fp=0, fn=5))
        assert (zero.precision, zero.recall, zero.f05) == (0.0, 0.0, 0.0)
        no_hyp = prf(MatchCounts(tp=0, fp=3, fn=0))
        assert (no_hyp.precision, no_hyp.recall, no_hyp.f05) == (0.0, 0.0, 0.0)

    def test_precision_weighted(self):
        # With beta=0.5, precision dominates: P=1,R=0.5 beats P=0.5,R=1.
        high_p = fbeta(1.0, 0.5)
        high_r = fbeta(0.5, 1.0)
        assert high_p > high_r

    def test_perfect(self):
        assert prf(MatchCounts(tp=4, fp=0, fn=0)).f05 == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            MatchCounts(tp=-1, fp=0, fn=0)


class TestMatchSentence:
    def test_span_and_replacement_must_match(self):
        pair = pair_multi("She go home", {0: [Edit(1, 2, ("goes",), SVA)]})
        hit = [Edit(1, 2, ("goes",), SVA)]
        counts, annotator = match_sentence(hit, pair)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)
        assert annotator == 0
        miss = [Edit(1, 2, ("went",), SVA)]
        counts, _ = match_sentence(miss, pair)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_type_ignored_by_default(self):
        pair = pair_multi("She go home", {0: [Edit(1, 2, ("goes",), SVA)]})
        hyp = [Edit(1, 2, ("goes",), PUNCT)]
        counts, _ = match_sentence(hyp, pair)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_picks_flattering_annotator(self):
        pair = pair_multi(
            "She go home now",
            {
                0: [Edit(1, 2, ("goes",), SVA), Edit(3, 4, (), PUNCT)],
                1: [Edit(1, 2, ("goes",), SVA)],
            },
        )
        counts, annotator = match_sentence([Edit(1, 2, ("goes",), SVA)], pair)
        assert annotator == 1
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_annotator_tie_goes_to_lower_id(self):
        pair = pair_multi(
            "a b c",
            {
                2: [Edit(0, 1, ("x",))],
                5: [Edit(0, 1, ("x",))],
            },
        )
        _, annotator = match_sentence([Edit(0, 1, ("x",))], pair)
        assert annotator == 2

    def test_no_annotators(self):
        pair = AnnotatedPair(source=sent("a b"), target=None, gold=(), annotator_ids=())
        counts, annotator = match_sentence([Edit(0, 1, ("x",))], pair)
        assert annotator is None
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 0)

    def test_duplicate_insertions_need_multiset(self):
        pair = pair_multi("a b", {0: [Edit(1, 1, ("x",)), Edit(1, 1, ("x",))]})
        counts, _ = match_sentence([Edit(1, 1, ("x",))], pair)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)


class TestEvaluateCorpus:
    def corpus(self):
        pairs = [
            pair_multi("She go home", {0: [Edit(1, 2, ("goes",), SVA)]}),
            pair_multi("I at home", {0: [Edit(1, 2, ("am", "at"), PREP)]}),
            pair_multi("Fine here", {0: []}),
        ]
        hyps = [
            [Edit(1, 2, ("goes",), SVA)],
            [Edit(0, 1, ("a",), DET)],
            [],
        ]
        return hyps, pairs

    def test_counts_summed_over_sentences(self):
        hyps, pairs = self.corpus()
        report = evaluate_corpus(hyps, pairs)
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 1, 1)
        assert report.n_sentences == 3
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f05 == 0.5

    def test_per_type_buckets(self):
        hyps, pairs = self.corpus()
        report = evaluate_corpus(hyps, pairs)
        assert report.per_type[SVA].tp == 1
        assert report.per_type[PREP].fn == 1
        assert report.per_type[DET].fp == 1
        per_type = report.to_json_dict()["per_type"]
        assert per_type[SVA]["gold_total"] == 1
        assert per_type[PREP]["gold_total"] == 1

    def test_duplicate_hypothesis_edits_match_lowest_index_first(self):
        # Two hypothesis edits share a key; the gold edit takes the first,
        # so the second counts as an fp of its own type.
        pair = pair_multi("a b", {0: [Edit(1, 1, ("x",), DET)]})
        hyp = [Edit(1, 1, ("x",), DET), Edit(1, 1, ("x",), PUNCT)]
        report = evaluate_corpus([hyp], [pair])
        assert report.per_type[DET] == MatchCounts(tp=1, fp=0, fn=0)
        assert report.per_type[PUNCT] == MatchCounts(tp=0, fp=1, fn=0)
        assert report.counts == MatchCounts(tp=1, fp=1, fn=0)

    def test_per_type_counts_sum_to_totals(self):
        hyps, pairs = self.corpus()
        report = evaluate_corpus(hyps, pairs)
        summed = MatchCounts()
        for counts in report.per_type.values():
            summed = summed + counts
        assert summed == report.counts

    def test_json_dict_percent_scale(self):
        hyps, pairs = self.corpus()
        d = evaluate_corpus(hyps, pairs).to_json_dict()
        assert d["precision"] == 50.0
        assert d["f0.5"] == 50.0
        shares = [t["gold_share_pct"] for t in d["per_type"].values()]
        assert sum(s for s in shares) == pytest.approx(100.0, abs=0.05)

    def test_render_table_stable(self):
        hyps, pairs = self.corpus()
        report = evaluate_corpus(hyps, pairs)
        assert report.render_table() == report.render_table()
        assert "f0.5" in report.render_table()

    def test_length_mismatch_rejected(self):
        hyps, pairs = self.corpus()
        with pytest.raises(ConfigError):
            evaluate_corpus(hyps[:2], pairs)


class TestEvaluateHypotheses:
    def test_extraction_end_to_end(self):
        source = sent("She go home")
        pair = AnnotatedPair.from_edits(source, [Edit(1, 2, ("goes",), SVA)])
        report = evaluate_hypotheses([sent("She goes home")], [pair])
        assert report.counts.tp == 1
        assert report.f05 == 1.0

    def test_unchanged_hypothesis_scores_zero(self):
        source = sent("She go home")
        pair = AnnotatedPair.from_edits(source, [Edit(1, 2, ("goes",), SVA)])
        report = evaluate_hypotheses([source], [pair])
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 0, 1)


class TestPerTypeBreakdown:
    def test_shares_sum_to_hundred(self):
        pairs = [
            pair_multi("a b c", {0: [Edit(0, 1, ("x",), DET), Edit(2, 3, ("y",), SVA)]}),
            pair_multi("d e f", {0: [Edit(1, 2, ("z",), DET)]}),
        ]
        per_type = evaluate_corpus([[], []], pairs).to_json_dict()["per_type"]
        shares = {etype: t["gold_share_pct"] for etype, t in per_type.items()}
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.05)
        assert shares[DET] == round(200 / 3, 2)


class TestFilterEval:
    def corpus(self):
        pairs = [
            pair_multi(
                "She go home now",
                {0: [Edit(1, 2, ("goes",), SVA), Edit(3, 4, (), PUNCT)]},
            ),
            pair_multi("I go to home", {0: [Edit(2, 3, ("toward",), PREP)]}),
        ]
        hyps = [
            [Edit(1, 2, ("goes",), SVA)],
            [Edit(2, 3, (), PUNCT)],
        ]
        return hyps, pairs

    def test_drop_sentences(self):
        hyps, pairs = self.corpus()
        report = filter_eval(hyps, pairs, {PUNCT}, mode=DROP_SENTENCES)
        # Sentence 1 contains a PUNCT gold edit and is removed entirely.
        assert report.n_sentences == 1
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 1, 1)

    def test_drop_edits(self):
        hyps, pairs = self.corpus()
        report = filter_eval(hyps, pairs, {PUNCT}, mode=DROP_EDITS)
        assert report.n_sentences == 2
        # PUNCT gold edit and PUNCT-classified hyp edit both vanish.
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 0, 1)

    def test_excluding_everything_raises(self):
        hyps, pairs = self.corpus()
        with pytest.raises(EmptyEvaluation):
            filter_eval(hyps, pairs, {SVA, PUNCT, PREP}, mode=DROP_EDITS)

    def test_unknown_mode(self):
        hyps, pairs = self.corpus()
        with pytest.raises(ConfigError):
            filter_eval(hyps, pairs, {PUNCT}, mode="drop_everything")

    def test_filtering_can_raise_f05(self):
        # The hypothesis never attempts PUNCT; excluding PUNCT removes
        # misses only, so the score cannot drop.
        hyps, pairs = self.corpus()
        full = evaluate_corpus(hyps, pairs)
        filtered = filter_eval(hyps, pairs, {PUNCT}, mode=DROP_EDITS)
        assert filtered.f05 >= full.f05


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
    stage = TrainStage(
        name="toy", pairs=tuple(toy_pairs(48, seed=11)), epochs=5, lr=0.05, batch_size=16
    )
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

        monkeypatch.setattr(geckit.gec, "train_gec", counting_train_gec)
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
                train_gec(model, replace(stage, name=loss, loss=loss), judge=judge, seed=seed)
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
