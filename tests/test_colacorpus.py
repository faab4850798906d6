"""Tests for corpus mining, merging, and splitting."""

import random

import pytest

from geckit.colacorpus import (
    Corpus,
    FilterConfig,
    SplitConfig,
    build_cola_from_gec,
    corpus_stats,
    merge_corpora,
)
from geckit.errors import ConfigError
from geckit.textcore import (
    ORIGIN_GEC_SOURCE,
    ORIGIN_GEC_TARGET,
    ORIGIN_LINGUISTICS,
    ORIGIN_SYNTHETIC,
    AnnotatedPair,
    ColaInstance,
    Edit,
    Sentence,
)


def pair(source_tokens, edits):
    return AnnotatedPair.from_edits(Sentence(tuple(source_tokens)), edits)


def noop_pair(source_tokens):
    src = Sentence(tuple(source_tokens))
    return AnnotatedPair(source=src, target=src, gold=((),), annotator_ids=(0,))


def inst(text, label, origin=ORIGIN_LINGUISTICS):
    return ColaInstance(Sentence(tuple(text.split())), label, origin)


class TestFilterConfig:
    def test_defaults(self):
        flt = FilterConfig()
        assert (flt.min_len, flt.max_len, flt.max_edits) == (3, 80, 10)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            FilterConfig(min_len=5, max_len=4)
        with pytest.raises(ConfigError):
            FilterConfig(min_len=0)
        with pytest.raises(ConfigError):
            FilterConfig(max_edits=0)


class TestBuildColaFromGec:
    def test_pair_yields_both_sides(self):
        p = pair(["She", "go", "home"], [Edit(1, 2, ("goes",))])
        out = build_cola_from_gec([p])
        assert len(out) == 2
        source_inst, target_inst = out
        assert source_inst.label == 0
        assert source_inst.origin == ORIGIN_GEC_SOURCE
        assert source_inst.sentence.text == "She go home"
        assert target_inst.label == 1
        assert target_inst.origin == ORIGIN_GEC_TARGET
        assert target_inst.sentence.text == "She goes home"

    def test_zero_edit_pair_dropped(self):
        assert build_cola_from_gec([noop_pair(["All", "is", "well"])]) == []

    def test_length_gate_applies_to_source(self):
        short = pair(["go", "on"], [Edit(0, 1, ("goes",))])
        long = pair(["w"] * 81, [Edit(0, 1, ("x",))])
        assert build_cola_from_gec([short, long]) == []
        assert len(build_cola_from_gec([short], FilterConfig(min_len=2))) == 2

    def test_edit_count_gate(self):
        edits = [Edit(i, i, (f"x{i}",)) for i in range(3)]
        p = pair(["a1", "b2", "c3", "d4"], edits)
        assert build_cola_from_gec([p], FilterConfig(max_edits=2)) == []
        assert len(build_cola_from_gec([p], FilterConfig(max_edits=3))) == 2

    def test_order_follows_input(self):
        pairs = [
            pair(["He", "go", "there"], [Edit(1, 2, ("goes",))]),
            pair(["They", "goes", "there"], [Edit(1, 2, ("go",))]),
        ]
        out = build_cola_from_gec(pairs)
        assert [i.sentence.text for i in out] == [
            "He go there",
            "He goes there",
            "They goes there",
            "They go there",
        ]


class TestMergeCorpora:
    def test_dedupe_keeps_first(self):
        a = inst("the cat sat", 1)
        b = inst("the cat sat", 1, ORIGIN_GEC_TARGET)
        corpus = merge_corpora({"one": [a], "two": [b]}, seed=1)
        assert len(corpus) == 1
        assert corpus.meta["duplicates_removed"] == 1
        assert corpus.meta["label_conflicts"] == 0
        kept = (corpus.train + corpus.dev + corpus.test)[0]
        assert kept.origin == ORIGIN_LINGUISTICS

    def test_conflict_prefers_linguistics_label(self):
        gec_first = inst("odd sentence here", 0, ORIGIN_GEC_SOURCE)
        ling_second = inst("odd sentence here", 1, ORIGIN_LINGUISTICS)
        corpus = merge_corpora({"gec": [gec_first], "ling": [ling_second]}, seed=1)
        kept = (corpus.train + corpus.dev + corpus.test)[0]
        assert kept.label == 1
        assert kept.origin == ORIGIN_LINGUISTICS
        assert corpus.meta["label_conflicts"] == 1

    def test_conflict_between_gec_sides_keeps_first(self):
        a = inst("same words twice", 0, ORIGIN_GEC_SOURCE)
        b = inst("same words twice", 1, ORIGIN_GEC_TARGET)
        corpus = merge_corpora({"p": [a, b]}, seed=1)
        kept = (corpus.train + corpus.dev + corpus.test)[0]
        assert kept.label == 0
        assert corpus.meta["label_conflicts"] == 1

    def test_gec_origin_never_in_test(self):
        rng = random.Random(7)
        instances = []
        for i in range(400):
            origin = rng.choice(
                [ORIGIN_LINGUISTICS, ORIGIN_GEC_SOURCE, ORIGIN_GEC_TARGET, ORIGIN_SYNTHETIC]
            )
            instances.append(inst(f"sentence number {i}", rng.randint(0, 1), origin))
        for seed in range(5):
            corpus = merge_corpora({"all": instances}, seed=seed)
            assert all(
                i.origin in (ORIGIN_LINGUISTICS, ORIGIN_SYNTHETIC) for i in corpus.test
            )

    def test_split_sizes_follow_fractions(self):
        instances = [inst(f"ling item {i}", i % 2) for i in range(200)]
        corpus = merge_corpora({"l": instances}, SplitConfig(dev=0.1, test=0.1), seed=3)
        assert len(corpus.train) == 160
        assert len(corpus.dev) == 20
        assert len(corpus.test) == 20

    def test_test_capped_by_eligible_pool(self):
        gec = [inst(f"gec item {i}", 0, ORIGIN_GEC_SOURCE) for i in range(90)]
        ling = [inst(f"ling item {i}", 1) for i in range(10)]
        corpus = merge_corpora({"g": gec, "l": ling}, SplitConfig(dev=0.2, test=0.3), seed=3)
        assert len(corpus.test) == 10
        assert len(corpus) == 100

    def test_deterministic_under_seed(self):
        instances = [inst(f"item {i}", i % 2) for i in range(50)]
        a = merge_corpora({"x": instances}, seed=11)
        b = merge_corpora({"x": instances}, seed=11)
        assert a == b
        c = merge_corpora({"x": instances}, seed=12)
        assert a != c

    def test_balance_downsamples_majority(self):
        ones = [inst(f"pos {i}", 1) for i in range(30)]
        zeros = [inst(f"neg {i}", 0) for i in range(10)]
        corpus = merge_corpora({"x": ones + zeros}, seed=0, balance=True)
        labels = [i.label for i in corpus.train + corpus.dev + corpus.test]
        assert labels.count(0) == labels.count(1) == 10

    def test_rejects_bad_split(self):
        with pytest.raises(ConfigError):
            SplitConfig(dev=0.6, test=0.5)
        with pytest.raises(ConfigError):
            SplitConfig(dev=-0.1, test=0.5)
        with pytest.raises(ConfigError):
            SplitConfig(dev=float("nan"))


class TestCorpusStats:
    def test_counts_sum_to_corpus_size(self):
        rng = random.Random(5)
        instances = [
            inst(
                f"stat sentence {i}",
                rng.randint(0, 1),
                rng.choice([ORIGIN_LINGUISTICS, ORIGIN_GEC_SOURCE, ORIGIN_SYNTHETIC]),
            )
            for i in range(120)
        ]
        corpus = merge_corpora({"x": instances}, seed=2)
        stats = corpus_stats(corpus)
        total = sum(
            count
            for split in stats.values()
            for labels in split.values()
            for count in labels.values()
        )
        assert total == len(corpus) == 120
        assert set(stats) == {"train", "dev", "test"}

    def test_schema_keys(self):
        corpus = merge_corpora({"x": [inst("tiny corpus here", 1)]}, seed=0)
        stats = corpus_stats(corpus)
        for split in stats.values():
            for label, by_origin in split.items():
                assert label in ("0", "1")
                for origin in by_origin:
                    assert origin == ORIGIN_LINGUISTICS

    def test_empty_corpus(self):
        corpus = Corpus((), (), ())
        assert corpus_stats(corpus) == {"train": {}, "dev": {}, "test": {}}
