import random
from functools import lru_cache

import pytest

import geckit.align
from geckit.align import (
    ALL_SPLIT,
    DELETE,
    INSERT,
    MATCH,
    MERGE_ADJACENT,
    SUBSTITUTE,
    TRANSPOSE,
    Alignment,
    CostConfig,
    ExtractConfig,
    InflectionTable,
    LexiconSet,
    align_tokens,
    char_edit_distance,
    classify_edit,
    extract_edits,
    load_inflections,
    load_lexicons,
    load_token_set,
    merge_alignment,
    save_lexicons,
)
from geckit.errors import ConfigError, FormatError, InvalidEditSet
from geckit.textcore import DET, ORTH, OTHER, PREP, PUNCT, SPELL, Edit, Sentence, apply_edits


def brute_force_cost(src, tgt, cfg):
    """Exhaustive minimum alignment cost, memoized top-down recursion.

    Mirrors the cost model only; deliberately shares no code with the DP.
    """

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(src) and j == len(tgt):
            return 0.0
        options = []
        if i < len(src) and j < len(tgt):
            if src[i] == tgt[j]:
                options.append(go(i + 1, j + 1) + cfg.match)
            else:
                options.append(go(i + 1, j + 1) + cfg.substitute(src[i], tgt[j]))
            if (i + 1 < len(src) and j + 1 < len(tgt)
                    and src[i] == tgt[j + 1] and src[i + 1] == tgt[j]):
                options.append(go(i + 2, j + 2) + cfg.transpose)
        if i < len(src):
            options.append(go(i + 1, j) + cfg.delete)
        if j < len(tgt):
            options.append(go(i, j + 1) + cfg.insert)
        return min(options)

    return go(0, 0)


class TestCharEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("kitten", "sitting", 3),
            ("recieve", "receive", 2),
            ("abc", "abc", 0),
            ("", "abc", 3),
            ("on", "in", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert char_edit_distance(a, b) == expected


class TestCostConfig:
    def test_case_only_substitution(self):
        assert CostConfig().substitute("The", "the") == 0.25

    def test_similarity_scaled_substitution(self):
        # d("walk","walks")=1, max len 5: 1 + (1/5)*0.5 = 1.1
        assert CostConfig().substitute("walk", "walks") == pytest.approx(1.1)

    def test_nonzero_match_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostConfig(match=0.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostConfig(delete=-1.0)


class TestAlignTokens:
    def test_identity_alignment_is_all_matches(self):
        s = Sentence(("a", "b", "c"))
        alignment = align_tokens(s, s)
        assert [op.kind for op in alignment.ops] == [MATCH, MATCH, MATCH]
        assert alignment.cost == 0.0

    def test_adjacent_swap_is_a_transpose(self):
        alignment = align_tokens(Sentence(("a", "c", "b")), Sentence(("a", "b", "c")))
        assert [op.kind for op in alignment.ops] == [MATCH, TRANSPOSE]
        assert alignment.cost == pytest.approx(0.9)
        assert alignment.ops[1].src_span == (1, 3)

    def test_near_token_prefers_substitution(self):
        alignment = align_tokens(Sentence(("she", "walk")), Sentence(("she", "walks")))
        assert [op.kind for op in alignment.ops] == [MATCH, SUBSTITUTE]

    def test_insert_and_delete(self):
        alignment = align_tokens(Sentence(("b",)), Sentence(("a", "b")))
        assert [op.kind for op in alignment.ops] == [INSERT, MATCH]
        alignment = align_tokens(Sentence(("a", "b")), Sentence(("b",)))
        assert [op.kind for op in alignment.ops] == [DELETE, MATCH]

    def test_cost_matches_brute_force_on_random_pairs(self):
        rng = random.Random(20240811)
        alphabet = ["a", "b", "ab", "ba", "c"]
        for _ in range(300):
            src = Sentence(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
            tgt = Sentence(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
            got = align_tokens(src, tgt).cost
            want = brute_force_cost(src.tokens, tgt.tokens, CostConfig())
            assert got == pytest.approx(want, abs=1e-12), (src.tokens, tgt.tokens)

    def test_deterministic_ops(self):
        src = Sentence(("a", "b", "a", "b"))
        tgt = Sentence(("b", "a", "b", "a"))
        first = align_tokens(src, tgt)
        second = align_tokens(src, tgt)
        assert first.ops == second.ops

    def test_ops_cost_sums_to_total(self):
        rng = random.Random(7)
        for _ in range(50):
            src = Sentence(tuple(rng.choice("abcde") for _ in range(rng.randint(1, 10))))
            tgt = Sentence(tuple(rng.choice("abcde") for _ in range(rng.randint(1, 10))))
            alignment = align_tokens(src, tgt)
            assert sum(op.cost for op in alignment.ops) == pytest.approx(alignment.cost)


class TestMergeAlignment:
    def _alignment(self, src, tgt):
        return align_tokens(Sentence(src), Sentence(tgt))

    def test_all_split_one_edit_per_op(self):
        alignment = self._alignment(("a", "x", "y", "d"), ("a", "p", "q", "d"))
        edits = merge_alignment(alignment, ALL_SPLIT)
        assert edits == [Edit(1, 2, ("p",), "UNK"), Edit(2, 3, ("q",), "UNK")]

    def test_merge_adjacent_coalesces_runs(self):
        alignment = self._alignment(("a", "x", "y", "d"), ("a", "p", "q", "d"))
        edits = merge_alignment(alignment, MERGE_ADJACENT)
        assert edits == [Edit(1, 3, ("p", "q"), "UNK")]

    def test_transpose_stays_single_edit(self):
        alignment = self._alignment(("a", "c", "b"), ("a", "b", "c"))
        for policy in (ALL_SPLIT, MERGE_ADJACENT):
            edits = merge_alignment(alignment, policy)
            assert edits == [Edit(1, 3, ("b", "c"), "UNK")]

    def test_transpose_does_not_merge_into_neighbor_run(self):
        # Swapped pair followed directly by a substitution: the transpose
        # must stay its own edit instead of joining the run.
        src = Sentence(("b", "a", "x"))
        tgt = Sentence(("a", "b", "y"))
        alignment = align_tokens(src, tgt)
        assert [op.kind for op in alignment.ops] == [TRANSPOSE, SUBSTITUTE]
        edits = merge_alignment(alignment, MERGE_ADJACENT)
        assert edits == [Edit(0, 2, ("a", "b"), "UNK"), Edit(2, 3, ("y",), "UNK")]
        assert apply_edits(src, edits).tokens == tgt.tokens

    def test_unknown_policy_rejected(self):
        alignment = self._alignment(("a",), ("a",))
        with pytest.raises(ConfigError):
            merge_alignment(alignment, "merge_all")


class TestClassifyEdit:
    def test_punct_insertion(self):
        s = Sentence(("she", "walks", "home"))
        assert classify_edit(Edit(3, 3, (".",)), s) == PUNCT

    def test_punct_substitution(self):
        s = Sentence(("she", "walks", "home", "!"))
        assert classify_edit(Edit(3, 4, (".",)), s) == PUNCT

    def test_orth_case_change(self):
        s = Sentence(("she", "walks"))
        assert classify_edit(Edit(0, 1, ("She",)), s) == ORTH

    def test_orth_boundary_change(self):
        s = Sentence(("new", "york"))
        assert classify_edit(Edit(0, 2, ("NewYork",)), s) == ORTH

    def test_spell_near_miss(self):
        s = Sentence(("i", "recieve", "mail"))
        assert classify_edit(Edit(1, 2, ("receive",)), s) == SPELL

    def test_spell_requires_alphabetic(self):
        s = Sentence(("x1y",))
        assert classify_edit(Edit(0, 1, ("x2y",)), s) == OTHER

    def test_spell_distance_bound(self):
        s = Sentence(("cat",))
        # distance 3 > ceil(5/2)? ceil(5/2)=3, use a farther token: "zzzzz" d=5
        assert classify_edit(Edit(0, 1, ("zzzzz",)), s) == OTHER

    def test_det_insertion_and_swap(self):
        s = Sentence(("she", "walks", "to", "park"))
        assert classify_edit(Edit(3, 3, ("the",)), s) == DET
        s2 = Sentence(("a", "cat",))
        assert classify_edit(Edit(0, 1, ("the",)), s2) == DET

    def test_prep_substitution(self):
        s = Sentence(("she", "walks", "on", "the", "park"))
        assert classify_edit(Edit(2, 3, ("to",)), s) == PREP

    def test_lexicon_words_never_spell(self):
        # "on"->"in" is distance 1 but both are prepositions.
        s = Sentence(("on",))
        assert classify_edit(Edit(0, 1, ("in",)), s) == PREP

    def test_morphology_table_category_wins_over_other(self):
        lex = LexiconSet(morphology=(InflectionTable("SVA", (("walk", "walks"),)),))
        s = Sentence(("they", "walks"))
        assert classify_edit(Edit(1, 2, ("walk",), ), s, lex) == "SVA"

    def test_morphology_forms_block_spell(self):
        lex = LexiconSet(morphology=(InflectionTable("SVA", (("walk", "walks"),)),))
        s = Sentence(("they", "walks"))
        # Without the table this would be SPELL; with it, SVA.
        assert classify_edit(Edit(1, 2, ("walk",)), s, LexiconSet()) == SPELL
        assert classify_edit(Edit(1, 2, ("walk",)), s, lex) == "SVA"

    def test_fallback_is_other(self):
        s = Sentence(("cat", "the"))
        assert classify_edit(Edit(0, 2, ("the", "cat")), s) == OTHER


class TestExtractEdits:
    def test_round_trip_on_random_pairs(self):
        rng = random.Random(99)
        vocab = ["the", "a", "cat", "dog", "walks", "walk", ".", "on", "in"]
        for _ in range(500):
            src = Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 12))))
            tgt = Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 12))))
            for policy in (ALL_SPLIT, MERGE_ADJACENT):
                edits = extract_edits(src, tgt, ExtractConfig(policy=policy))
                assert apply_edits(src, edits).tokens == tgt.tokens

    def test_edits_sorted_and_typed(self):
        src = Sentence(("she", "walk", "to", "park", "!"))
        tgt = Sentence(("she", "walks", "to", "the", "park", "."))
        edits = extract_edits(src, tgt)
        assert [e.start for e in edits] == sorted(e.start for e in edits)
        assert all(e.etype != "UNK" for e in edits)

    def test_single_substitution_span_and_type(self):
        src = Sentence(("she", "walk", "home", "."))
        tgt = Sentence(("she", "walks", "home", "."))
        edits = extract_edits(src, tgt)
        assert len(edits) == 1
        assert (edits[0].start, edits[0].end, edits[0].replacement) == (1, 2, ("walks",))

    def test_lost_edit_raises_invalid_edit_set(self, monkeypatch):
        def drop_last(alignment, policy=MERGE_ADJACENT):
            return merge_alignment(alignment, policy)[:-1]

        monkeypatch.setattr(geckit.align, "merge_alignment", drop_last)
        with pytest.raises(InvalidEditSet):
            extract_edits(Sentence(("she", "walk", "home")), Sentence(("she", "walks", "home")))


class TestLexiconIO:
    def test_token_set_round_trip(self, tmp_path):
        path = tmp_path / "determiners.txt"
        path.write_text("the\nan\n\na\n", encoding="utf-8")
        assert load_token_set(path) == {"the", "an", "a"}

    def test_token_with_space_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("the cat\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_token_set(path)
        assert err.value.line == 1

    def test_inflections_grouped_by_category(self, tmp_path):
        path = tmp_path / "morphology.tsv"
        path.write_text("SVA\twalk\twalks\nSVA\tgo\tgoes\nNN\tcat\tcats\n", encoding="utf-8")
        tables = load_inflections(path)
        assert [t.category for t in tables] == ["SVA", "NN"]
        assert tables[0].maps("goes", "go")

    def test_bad_inflection_line_reports_position(self, tmp_path):
        path = tmp_path / "morphology.tsv"
        path.write_text("SVA\twalk\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_inflections(path)
        assert err.value.line == 1

    def test_save_and_load_directory(self, tmp_path):
        lex = LexiconSet(
            punctuation=frozenset({".", "!"}),
            determiners=frozenset({"the", "a"}),
            prepositions=frozenset({"to", "in"}),
            morphology=(InflectionTable("SVA", (("walk", "walks"),)),),
        )
        save_lexicons(lex, tmp_path)
        loaded = load_lexicons(tmp_path)
        assert loaded.punctuation == lex.punctuation
        assert loaded.determiners == lex.determiners
        assert loaded.prepositions == lex.prepositions
        assert loaded.morphology[0].maps("walks", "walk")

    def test_missing_files_fall_back_to_defaults(self, tmp_path):
        lex = load_lexicons(tmp_path)
        assert "the" in lex.determiners
