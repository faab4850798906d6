"""Tests for grammar generation, error injection, and benchmark assembly."""

import json
from collections import Counter
from dataclasses import replace

import pytest

from geckit import synth
from geckit.align import extract_edits, load_lexicons
from geckit.errors import ConfigError, InvalidEditSet
from geckit.synth import (
    AGREEMENT_BREAK,
    CHAR_TYPO,
    DETERMINER_DROP,
    ERROR_KINDS,
    KIND_LABELS,
    PREPOSITION_SWAP,
    PUNCTUATION_DROP,
    TOKEN_SWAP,
    ErrorInjectionSpec,
    SizeConfig,
    SynthGrammar,
    default_typo_forms,
    gen_corpus,
    inject,
    make_benchmark,
    make_preset,
    save_grammar,
    save_injection_spec,
    write_benchmark,
)
from geckit.textcore import (
    DET,
    PUNCT,
    SPELL,
    Edit,
    Sentence,
    apply_edits,
    parse_cola_tsv,
    parse_m2,
)


@pytest.fixture(scope="module")
def mix_a():
    return make_preset("mix_a")


@pytest.fixture(scope="module")
def char_mix():
    return make_preset("char_mix")


def uniform_spec(grammar, kinds=ERROR_KINDS, counts={1: 1.0}):
    share = 1.0 / len(kinds)
    return ErrorInjectionSpec(
        grammar=grammar, kind_weights={k: share for k in kinds}, count_weights=dict(counts)
    )


class TestGrammarValidation:
    def test_template_with_empty_slot(self):
        with pytest.raises(ConfigError):
            SynthGrammar(
                nouns=(("dog", "dogs"),),
                verbs=(("is", "are"),),
                determiners_sg=("the",),
                determiners_pl=("the",),
                modifiers=(),
                prepositions=("near",),
                confusion_prepositions=(),
                punctuation=(".",),
                templates=(("det_subj", "noun_subj", "modifier", "punct"),),
            )

    def test_unknown_slot(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            replace(grammar, templates=(("adverb",),))

    def test_typo_form_collision(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            replace(grammar, typo_forms={"dog": ("cat",)})

    def test_noun_surface_in_both_numbers(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            replace(grammar, nouns=(("sheep", "sheep"),))

    def test_confusion_preposition_collision(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            replace(grammar, confusion_prepositions=("near",))


class TestGeneration:
    def test_golden_first_three(self, mix_a):
        grammar, _ = mix_a
        texts = [s.text for s in gen_corpus(grammar, 3, seed=1)]
        assert texts == [
            "some dogs are drinking with the houses .",
            "a table was with the window .",
            "the cat is near the rivers .",
        ]

    def test_deterministic(self, mix_a):
        grammar, _ = mix_a
        a = [s.text for s in gen_corpus(grammar, 50, seed=4)]
        b = [s.text for s in gen_corpus(grammar, 50, seed=4)]
        assert a == b

    def test_prefix_stability(self, mix_a):
        # Item i depends on (seed, i) only, so prefixes agree.
        grammar, _ = mix_a
        long = gen_corpus(grammar, 20, seed=9)
        short = gen_corpus(grammar, 5, seed=9)
        assert [s.text for s in long[:5]] == [s.text for s in short]

    def test_all_outputs_valid(self, mix_a):
        grammar, _ = mix_a
        for sentence in gen_corpus(grammar, 300, seed=2):
            assert grammar.is_valid(sentence)

    def test_seed_changes_output_not_lengths(self, mix_a):
        grammar, _ = mix_a
        a = gen_corpus(grammar, 1000, seed=1)
        b = gen_corpus(grammar, 1000, seed=2)
        assert Counter(s.text for s in a) != Counter(s.text for s in b)
        mean_a = sum(len(s) for s in a) / len(a)
        mean_b = sum(len(s) for s in b) / len(b)
        assert abs(mean_a - mean_b) / mean_a < 0.10

    def test_n_zero_rejected(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            gen_corpus(grammar, 0, seed=0)

    def test_char_mode_outputs_valid(self, char_mix):
        grammar, _ = char_mix
        sentences = gen_corpus(grammar, 100, seed=3)
        for sentence in sentences:
            assert grammar.is_valid(sentence)
            assert all(len(token) == 1 for token in sentence.tokens)


class TestValidityChecker:
    def test_rejects_structural_breaks(self, mix_a, char_mix):
        grammar, _ = mix_a
        assert grammar.is_valid(Sentence(("the", "dog", "is", "running", ".")))
        assert not grammar.is_valid(Sentence(("the", "dog", "are", "running", ".")))
        assert not grammar.is_valid(Sentence(("dog", "is", "running", ".")))
        assert not grammar.is_valid(Sentence(("the", "dog", "is", "running")))
        assert not grammar.is_valid(Sentence(("a", "dogs", "are", "running", ".")))
        assert not grammar.is_valid(Sentence(("the", "dgo", "is", "running", ".")))
        assert not grammar.is_valid(Sentence(()))
        # char_mix sentences fall outside the word grammar.
        assert not any(grammar.is_valid(s) for s in gen_corpus(char_mix[0], 20, seed=0))


class TestSpecValidation:
    def test_weights_must_sum_to_one(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            ErrorInjectionSpec(
                grammar=grammar,
                kind_weights={PUNCTUATION_DROP: 0.5},
                count_weights={1: 1.0},
            )

    def test_unknown_kind(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            ErrorInjectionSpec(
                grammar=grammar, kind_weights={"elision": 1.0}, count_weights={1: 1.0}
            )

    def test_negative_weight(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            ErrorInjectionSpec(
                grammar=grammar,
                kind_weights={PUNCTUATION_DROP: 1.5, TOKEN_SWAP: -0.5},
                count_weights={1: 1.0},
            )

    def test_bad_count_key(self, mix_a):
        grammar, _ = mix_a
        with pytest.raises(ConfigError):
            ErrorInjectionSpec(
                grammar=grammar,
                kind_weights={PUNCTUATION_DROP: 1.0},
                count_weights={0: 1.0},
            )


class TestInject:
    def test_punctuation_drop_example(self, mix_a):
        grammar, _ = mix_a
        spec = uniform_spec(grammar, kinds=(PUNCTUATION_DROP,))
        result = inject(Sentence(("She", "goes", "home", ".")), spec, seed=0)
        assert not result.skipped
        assert result.corrupted.tokens == ("She", "goes", "home")
        assert result.gold == (Edit(3, 3, (".",), PUNCT),)
        assert result.types == (PUNCT,)

    def test_round_trip_always(self, mix_a):
        grammar, _ = mix_a
        spec = ErrorInjectionSpec(
            grammar=grammar,
            kind_weights={k: 1 / 6 for k in ERROR_KINDS},
            count_weights={1: 0.3, 2: 0.4, 3: 0.3},
        )
        sentences = gen_corpus(grammar, 3000, seed=11)
        for i, sentence in enumerate(sentences):
            result = inject(sentence, spec, seed=[5, i])
            assert apply_edits(result.corrupted, result.gold).tokens == sentence.tokens
            assert result.types == tuple(e.etype for e in result.gold)
            starts = [e.start for e in result.gold]
            assert starts == sorted(starts)

    def test_unrestored_sentence_raises_invalid_edit_set(self, mix_a, monkeypatch):
        def drop_last_token(sentence, edits):
            restored = apply_edits(sentence, edits)
            return Sentence(restored.tokens[:-1])

        monkeypatch.setattr(synth, "apply_edits", drop_last_token)
        grammar, _ = mix_a
        spec = uniform_spec(grammar, kinds=(PUNCTUATION_DROP,))
        with pytest.raises(InvalidEditSet):
            inject(Sentence(("She", "goes", "home", ".")), spec, seed=0)

    def test_deterministic_under_seed(self, mix_a):
        grammar, spec = mix_a
        sentence = gen_corpus(grammar, 1, seed=8)[0]
        a = inject(sentence, spec, seed=[3, 14])
        b = inject(sentence, spec, seed=[3, 14])
        assert a == b

    def test_kind_distribution_within_two_percent(self, mix_a):
        grammar, spec = mix_a
        single = ErrorInjectionSpec(
            grammar=grammar, kind_weights=spec.kind_weights, count_weights={1: 1.0}
        )
        counts = Counter()
        sentences = gen_corpus(grammar, 10000, seed=21)
        for i, sentence in enumerate(sentences):
            result = inject(sentence, single, seed=[9, i])
            assert not result.skipped
            counts[result.types[0]] += 1
        total = sum(counts.values())
        for kind in ERROR_KINDS:
            realized = counts[KIND_LABELS[kind]] / total
            assert abs(realized - spec.kind_weights[kind]) <= 0.02, kind

    def test_multi_error_spans_never_touch(self, mix_a):
        grammar, _ = mix_a
        spec = uniform_spec(grammar, counts={3: 1.0})
        sentences = gen_corpus(grammar, 500, seed=31)
        seen_multi = 0
        for i, sentence in enumerate(sentences):
            result = inject(sentence, spec, seed=[13, i])
            seen_multi += len(result.gold) > 1
            for left, right in zip(result.gold, result.gold[1:]):
                assert left.end < right.start
        assert seen_multi > 300

    def test_too_short_skipped(self, mix_a):
        grammar, _ = mix_a
        spec = uniform_spec(grammar, kinds=(PUNCTUATION_DROP,))
        result = inject(Sentence(("hello",)), spec, seed=0)
        assert result.skipped
        assert result.corrupted.tokens == ("hello",)
        assert result.gold == ()

    def test_corruption_kinds_do_what_they_say(self, mix_a):
        grammar, _ = mix_a
        sentence = Sentence(("the", "dog", "is", "running", "near", "the", "house", "."))
        for kind in ERROR_KINDS:
            result = inject(sentence, uniform_spec(grammar, kinds=(kind,)), seed=7)
            assert not result.skipped, kind
            assert result.types == (KIND_LABELS[kind],)
            assert apply_edits(result.corrupted, result.gold).tokens == sentence.tokens
        swapped = inject(sentence, uniform_spec(grammar, kinds=(TOKEN_SWAP,)), seed=7)
        assert len(swapped.corrupted) == len(sentence)
        assert sorted(swapped.corrupted.tokens) == sorted(sentence.tokens)
        dropped = inject(sentence, uniform_spec(grammar, kinds=(DETERMINER_DROP,)), seed=7)
        assert len(dropped.corrupted) == len(sentence) - 1
        broken = inject(sentence, uniform_spec(grammar, kinds=(AGREEMENT_BREAK,)), seed=7)
        assert "are" in broken.corrupted.tokens or "was" in broken.corrupted.tokens


class TestOracleAgreement:
    @pytest.mark.parametrize("preset", ["mix_a", "char_mix"])
    def test_single_error_extraction_matches_gold(self, preset):
        grammar, spec = make_preset(preset)
        single = ErrorInjectionSpec(
            grammar=grammar, kind_weights=spec.kind_weights, count_weights={1: 1.0}
        )
        lexicons = grammar.lexicons()
        checked = {PUNCT: [0, 0], DET: [0, 0], SPELL: [0, 0]}
        sentences = gen_corpus(grammar, 1500, seed=41)
        for i, sentence in enumerate(sentences):
            result = inject(sentence, single, seed=[17, i])
            if result.skipped:
                continue
            extracted = extract_edits(result.corrupted, sentence, lexicons)
            gold = result.gold[0]
            assert len(extracted) == 1
            found = extracted[0]
            assert (found.start, found.end, found.replacement) == (
                gold.start,
                gold.end,
                gold.replacement,
            )
            if gold.etype in checked:
                checked[gold.etype][0] += 1
                checked[gold.etype][1] += int(found.etype == gold.etype)
        for etype, (total, matched) in checked.items():
            assert total > 0
            assert matched / total >= 0.99, etype


@pytest.fixture(scope="module")
def small_mix_b():
    grammar, spec = make_preset("mix_b")
    sizes = SizeConfig(gec_train=400, gec_dev=80, gec_test=120, cola_pairs=1500)
    return make_benchmark(grammar, spec, sizes, seed=3)


class TestBenchmark:

    def test_sizes_and_disjointness(self, small_mix_b):
        bench = small_mix_b
        assert len(bench.gec_train) == 400
        assert len(bench.gec_dev) == 80
        assert len(bench.gec_test) == 120
        seen = {p.target.text for p in bench.gec_train} | {p.target.text for p in bench.gec_dev}
        assert not seen & {p.target.text for p in bench.gec_test}

    def test_gec_pairs_round_trip(self, small_mix_b):
        for pair in small_mix_b.gec_train[:100]:
            assert apply_edits(pair.source, pair.canonical_edits).tokens == pair.target.tokens

    def test_punct_fraction_recorded(self, small_mix_b):
        assert abs(small_mix_b.manifest["punct_fraction"] - 0.167) <= 0.01

    def test_mix_a_punct_fraction(self, mix_a):
        grammar, spec = mix_a
        sizes = SizeConfig(gec_train=400, gec_dev=80, gec_test=120, cola_pairs=1500)
        bench = make_benchmark(grammar, spec, sizes, seed=3)
        assert abs(bench.manifest["punct_fraction"] - 0.076) <= 0.01

    def test_cola_balance_within_one_percent(self, small_mix_b):
        instances = [
            inst
            for split in ("train", "dev", "test")
            for inst in small_mix_b.cola.split(split)
        ]
        ones = sum(inst.label for inst in instances)
        assert abs(ones / len(instances) - 0.5) <= 0.01

    def test_cola_labels_track_grammaticality(self, small_mix_b):
        # Every acceptable instance passes the checker. Most corruptions
        # fail it; a few (e.g. modifier/preposition swaps) stay
        # agreement-clean, so the unacceptable side is a bound.
        grammar = small_mix_b.grammar
        instances = list(small_mix_b.cola.split("dev"))
        bad = [inst for inst in instances if inst.label == 0]
        for inst in instances:
            if inst.label == 1:
                assert grammar.is_valid(inst.sentence)
        flagged = sum(not grammar.is_valid(inst.sentence) for inst in bad)
        assert flagged / len(bad) >= 0.85

    def test_manifest_counts(self, small_mix_b):
        manifest = small_mix_b.manifest
        assert manifest["seed"] == 3
        assert manifest["sizes"]["cola_pairs"] == 1500
        assert manifest["gec"]["train"]["pairs"] == 400
        gec_edits = sum(stats["edits"] for stats in manifest["gec"].values())
        recounted = sum(
            len(edits)
            for pairs in (small_mix_b.gec_train, small_mix_b.gec_dev, small_mix_b.gec_test)
            for pair in pairs
            for edits in [pair.canonical_edits]
        )
        assert gec_edits == recounted
        assert sum(manifest["error_counts"].values()) >= gec_edits
        assert abs(sum(manifest["error_fractions"].values()) - 1.0) < 1e-9
        assert json.dumps(manifest)

    def test_deterministic(self, small_mix_b):
        grammar, spec = make_preset("mix_b")
        sizes = SizeConfig(gec_train=400, gec_dev=80, gec_test=120, cola_pairs=1500)
        again = make_benchmark(grammar, spec, sizes, seed=3)
        assert again.manifest == small_mix_b.manifest
        assert [p.source.text for p in again.gec_test] == [
            p.source.text for p in small_mix_b.gec_test
        ]

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            SizeConfig(gec_train=0)

    def test_mismatched_spec_rejected(self, mix_a, char_mix):
        grammar_a, _ = mix_a
        _, spec_c = char_mix
        with pytest.raises(ConfigError):
            make_benchmark(grammar_a, spec_c, SizeConfig(10, 5, 5, 20), seed=0)

    def test_grammar_too_small_rejected(self, char_mix):
        grammar, spec = char_mix
        with pytest.raises(ConfigError):
            make_benchmark(grammar, spec, SizeConfig(2000, 300, 500, 10000), seed=0)

    def test_distinct_bound_is_tight_and_rejects_before_sampling(self, monkeypatch):
        grammar = SynthGrammar(
            nouns=(("dog", "dogs"), ("cat", "cats")),
            verbs=(("is", "are"),),
            determiners_sg=("a", "the"),
            determiners_pl=("the",),
            modifiers=(),
            prepositions=("near",),
            confusion_prepositions=(),
            punctuation=(".",),
            templates=(
                ("det_subj", "noun_subj", "verb", "prep", "det_obj", "noun_obj", "punct"),
            ),
        )
        # 2 nouns each side; determiners 2 (sg) or 1 (pl) each side: 4 * (2 + 1) ** 2.
        bound = 36
        assert len({s.text for s in gen_corpus(grammar, 2000, seed=0)}) == bound

        def no_sampling(*args):
            raise AssertionError("sampled although the grammar is too small")

        monkeypatch.setattr(synth, "_sample_sentence", no_sampling)
        with pytest.raises(ConfigError, match=f"at most {bound} unique"):
            make_benchmark(grammar, uniform_spec(grammar), SizeConfig(20, 5, 5, 7), seed=0)

    def test_char_benchmark_works(self, char_mix):
        grammar, spec = char_mix
        bench = make_benchmark(grammar, spec, SizeConfig(120, 30, 40, 300), seed=1)
        for pair in bench.gec_train:
            for sentence in (pair.source, pair.target):
                assert all(len(token) == 1 for token in sentence.tokens)


class TestSerialization:
    def test_write_benchmark_round_trips(self, tmp_path, char_mix):
        grammar, spec = char_mix
        bench = make_benchmark(grammar, spec, SizeConfig(60, 15, 20, 150), seed=2)
        paths = write_benchmark(bench, tmp_path)
        reparsed = parse_m2((tmp_path / "gec_test.m2").read_text(encoding="utf-8"))
        assert tuple(reparsed) == bench.gec_test
        cola_dev = parse_cola_tsv((tmp_path / "cola_dev.tsv").read_text(encoding="utf-8"))
        assert [i.sentence.text for i in cola_dev] == [
            i.sentence.text for i in bench.cola.split("dev")
        ]
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["sizes"] == bench.manifest["sizes"]
        assert load_lexicons(paths["lexicons"]) == grammar.lexicons()

    def test_grammar_json_round_trip(self, tmp_path, mix_a):
        grammar, _ = mix_a
        path = tmp_path / "grammar.json"
        save_grammar(grammar, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(data) == [
            "confusion_prepositions", "determiners_pl", "determiners_sg", "modifiers",
            "nouns", "prepositions", "punctuation", "templates", "typo_forms", "verbs",
        ]  # fmt: skip
        rebuilt = SynthGrammar(
            nouns=tuple(map(tuple, data["nouns"])),
            verbs=tuple(map(tuple, data["verbs"])),
            determiners_sg=tuple(data["determiners_sg"]),
            determiners_pl=tuple(data["determiners_pl"]),
            modifiers=tuple(data["modifiers"]),
            prepositions=tuple(data["prepositions"]),
            confusion_prepositions=tuple(data["confusion_prepositions"]),
            punctuation=tuple(data["punctuation"]),
            templates=tuple(map(tuple, data["templates"])),
            typo_forms={k: tuple(v) for k, v in data["typo_forms"].items()},
        )
        assert rebuilt == grammar

    def test_spec_json_round_trip(self, tmp_path, mix_a):
        grammar, spec = mix_a
        path = tmp_path / "spec.json"
        save_injection_spec(spec, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data == {
            "kind_weights": dict(spec.kind_weights),
            "count_weights": {str(k): v for k, v in spec.count_weights.items()},
        }


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            make_preset("mix_c")

    def test_mix_b_widens_punctuation(self):
        grammar_a, _ = make_preset("mix_a")
        grammar_b, _ = make_preset("mix_b")
        assert set(grammar_a.punctuation) < set(grammar_b.punctuation)

    def test_default_typo_forms_skips_collisions(self):
        forms = default_typo_forms(["dog", "ox"], frozenset({"dog", "ox", "odg"}))
        assert "odg" not in forms["dog"]
        assert all(f != "dog" for f in forms["dog"])
        assert forms["ox"] == ("xo", "oxx")
