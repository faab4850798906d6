"""Tests for edit-level scoring, filtering, and reports."""

import pytest

from geckit.errors import ConfigError, EmptyEvaluation
from geckit.evalmetrics import (
    DROP_EDITS,
    DROP_SENTENCES,
    MatchCounts,
    evaluate_corpus,
    evaluate_hypotheses,
    fbeta,
    filter_eval,
    match_sentence,
    prf,
)
from geckit.textcore import DET, PREP, PUNCT, SVA, AnnotatedPair, Edit, Sentence


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
