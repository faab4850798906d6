import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geckit.errors import FormatError, InvalidEditSet
from geckit.textcore import (
    AnnotatedPair,
    ColaInstance,
    Edit,
    Sentence,
    apply_edits,
    emit_cola_tsv,
    emit_m2,
    emit_sentences,
    parse_cola_tsv,
    parse_m2,
    parse_sentences,
    read_text,
    replace_file,
    write_json,
    write_text,
)


class TestSentence:
    def test_text_joins_with_single_space(self):
        assert Sentence(("a", "b")).text == "a b"

    def test_rejects_empty_token(self):
        with pytest.raises(InvalidEditSet):
            Sentence(("a", ""))

    def test_rejects_space_inside_token(self):
        with pytest.raises(InvalidEditSet):
            Sentence(("a b",))

    @pytest.mark.parametrize("token", ["a\tb", "g\xa0h", "b\r", "\u2028", "x\x1fy"])
    def test_rejects_any_whitespace_inside_token(self, token):
        with pytest.raises(InvalidEditSet, match="whitespace"):
            Sentence(("a", token))
        with pytest.raises(InvalidEditSet, match="whitespace"):
            Edit(0, 1, (token,))

    def test_zero_token_sentence_is_allowed(self):
        # Deleting every token is legal.
        assert len(Sentence(())) == 0


class TestEdit:
    def test_null_edit_forbidden(self):
        with pytest.raises(InvalidEditSet):
            Edit(2, 2, ())

    def test_negative_start_forbidden(self):
        with pytest.raises(InvalidEditSet):
            Edit(-1, 0, ("x",))

    def test_end_before_start_forbidden(self):
        with pytest.raises(InvalidEditSet):
            Edit(3, 2, ("x",))

    @pytest.mark.parametrize("etype", ["", "noop", "A|||B", "a|", "|b", "x\ny", "x\rz", None])
    def test_type_m2_cannot_carry_is_refused(self, etype):
        with pytest.raises(InvalidEditSet):
            Edit(0, 1, ("are",), etype)

    def test_insertion_and_deletion_are_fine(self):
        Edit(2, 2, ("x",))
        Edit(2, 3, ())


class TestApplyEdits:
    def test_substitution_and_insertion(self):
        # Hand-derived: replace token 1, then append at the end.
        s = Sentence(("She", "go", "home"))
        out = apply_edits(s, [Edit(1, 2, ("goes",)), Edit(3, 3, (".",))])
        assert out.tokens == ("She", "goes", "home", ".")

    def test_right_to_left_keeps_spans_stable(self):
        s = Sentence(("a", "b", "c"))
        out = apply_edits(s, [Edit(0, 1, ("x", "y")), Edit(2, 3, ())])
        assert out.tokens == ("x", "y", "b")

    def test_empty_edit_list_is_identity(self):
        s = Sentence(("a", "b"))
        assert apply_edits(s, []).tokens == s.tokens

    def test_overlap_rejected(self):
        s = Sentence(("a", "b", "c"))
        with pytest.raises(InvalidEditSet):
            apply_edits(s, [Edit(0, 2, ("x",)), Edit(1, 3, ("y",))])

    def test_out_of_bounds_rejected(self):
        s = Sentence(("a", "b"))
        with pytest.raises(InvalidEditSet):
            apply_edits(s, [Edit(1, 3, ("x",))])

    def test_delete_everything_yields_empty_sentence(self):
        s = Sentence(("a", "b"))
        assert apply_edits(s, [Edit(0, 2, ())]).tokens == ()

    def test_touching_spans_are_not_overlapping(self):
        s = Sentence(("a", "b", "c"))
        out = apply_edits(s, [Edit(0, 1, ("x",)), Edit(1, 2, ("y",))])
        assert out.tokens == ("x", "y", "c")


class TestAnnotatedPair:
    def test_from_edits_derives_target(self):
        pair = AnnotatedPair.from_edits(Sentence(("I", "has", "a", "dog")), [Edit(1, 2, ("have",), "SVA")])
        assert pair.target.tokens == ("I", "have", "a", "dog")
        assert pair.annotator_ids == (0,)

    def test_unsorted_gold_rejected(self):
        with pytest.raises(InvalidEditSet):
            AnnotatedPair(
                source=Sentence(("a", "b", "c")),
                gold=((Edit(2, 3, ("x",)), Edit(0, 1, ("y",))),),
                annotator_ids=(0,),
            )

    def test_canonical_edits_lowest_annotator(self):
        pair = AnnotatedPair(
            source=Sentence(("a", "b")),
            gold=((Edit(0, 1, ("x",)),), (Edit(1, 2, ("y",)),)),
            annotator_ids=(2, 1),
        )
        assert pair.canonical_edits == (Edit(1, 2, ("y",)),)
        assert pair.target.tokens == ("a", "y")


GOLDEN_M2 = (
    "S I has a dog\n"
    "A 1 2|||SVA|||have|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S She go home\n"
    "A 1 2|||SVA|||goes|||REQUIRED|||-NONE-|||0\n"
    "A 3 3|||PUNCT|||.|||REQUIRED|||-NONE-|||0\n"
    "A 1 2|||SVA|||went|||REQUIRED|||-NONE-|||1\n"
    "\n"
    "S ok .\n"
    "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S the the cat\n"
    "A 0 1|||DET|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    "A 2 3|||OTHER|||big cat|||REQUIRED|||-NONE-|||0\n"
)


class TestM2:
    def test_parse_single_edit(self):
        pairs = parse_m2("S I has a dog\nA 1 2|||SVA|||have|||REQUIRED|||-NONE-|||0\n")
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.source.tokens == ("I", "has", "a", "dog")
        assert pair.gold == ((Edit(1, 2, ("have",), "SVA"),),)
        assert pair.target.tokens == ("I", "have", "a", "dog")

    def test_noop_yields_empty_edit_list(self):
        pairs = parse_m2("S ok .\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n")
        assert pairs[0].gold == ((),)
        assert pairs[0].annotator_ids == (0,)
        assert pairs[0].target.tokens == ("ok", ".")

    def test_multi_annotator_and_deletion(self):
        text = (
            "S a a b\n"
            "A 0 1|||OTHER|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||OTHER|||c d|||REQUIRED|||-NONE-|||1\n"
        )
        pair = parse_m2(text)[0]
        assert pair.annotator_ids == (0, 1)
        assert pair.gold[0] == (Edit(0, 1, (), "OTHER"),)
        assert pair.gold[1] == (Edit(2, 3, ("c", "d"), "OTHER"),)
        assert pair.target.tokens == ("a", "b")

    def test_round_trip_is_byte_identical(self):
        assert emit_m2(parse_m2(GOLDEN_M2)) == GOLDEN_M2

    def test_parse_of_emit_is_identity(self):
        pairs = parse_m2(GOLDEN_M2)
        assert parse_m2(emit_m2(pairs)) == pairs

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.text(alphabet="ab |\n\ro", max_size=6))
    @example("noop")
    @example("A|||B")
    @example(" a b ")
    def test_every_edit_type_reads_back(self, etype):
        """A type that Edit accepts is written to an M2 file and read back from it."""
        try:
            edit = Edit(1, 2, ("are",), etype)
        except InvalidEditSet:
            return
        pair = AnnotatedPair.from_edits(Sentence(("he", "is", "here")), [edit])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edits.m2"
            write_text(path, emit_m2([pair]))
            assert parse_m2(read_text(path)) == [pair]

    def test_s_only_block_has_no_annotators(self):
        text = "S a b\n\nS c d\nA 0 1|||OTHER|||x|||REQUIRED|||-NONE-|||0\n"
        pairs = parse_m2(text)
        assert pairs[0].annotator_ids == ()
        assert pairs[0].target is None
        assert emit_m2(pairs) == text

    def test_empty_sentence_round_trips(self):
        """The empty sentence is an S line with nothing after "S ", as emit_m2 writes it."""
        pairs = [
            AnnotatedPair.from_edits(Sentence(()), [Edit(0, 0, ("c",), "OTHER")]),
            AnnotatedPair(source=Sentence(()), gold=(), annotator_ids=()),
            AnnotatedPair.from_edits(Sentence(()), []),
        ]
        text = emit_m2(pairs)
        assert text == (
            "S \nA 0 0|||OTHER|||c|||REQUIRED|||-NONE-|||0\n\n"
            "S \n\n"
            "S \nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        )
        assert parse_m2(text) == pairs
        assert [p.target for p in parse_m2(text)] == [Sentence(("c",)), None, Sentence(())]
        # A space with nothing after it is still an empty token.
        for bad in ("S  \n", "S a \n"):
            with pytest.raises(FormatError, match="empty token"):
                parse_m2(bad)

    def test_empty_text_gives_no_pairs(self):
        assert parse_m2("") == []
        assert emit_m2([]) == ""

    def test_a_before_s_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_m2("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n")
        assert err.value.line == 1

    def test_malformed_field_count_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_m2("S a b\nA 0 1|||X|||y\n")
        assert err.value.line == 2

    def test_bad_span_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_m2("S a b\nA one 2|||X|||y|||REQUIRED|||-NONE-|||0\n")
        assert err.value.line == 2

    def test_out_of_bounds_edit_rejected(self):
        with pytest.raises(FormatError):
            parse_m2("S a b\nA 5 6|||X|||y|||REQUIRED|||-NONE-|||0\n")

    def test_overlapping_edits_rejected(self):
        text = (
            "S a b c\n"
            "A 0 2|||X|||x|||REQUIRED|||-NONE-|||0\n"
            "A 1 3|||X|||y|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(FormatError):
            parse_m2(text)

    def test_trailing_blank_line_rejected(self):
        with pytest.raises(FormatError):
            parse_m2("S a b\n\n")

    def test_missing_final_newline_rejected(self):
        with pytest.raises(FormatError):
            parse_m2("S a b")

    def test_null_edit_rejected(self):
        with pytest.raises(FormatError):
            parse_m2("S a b\nA 1 1|||X|||-NONE-|||REQUIRED|||-NONE-|||0\n")

    @pytest.mark.parametrize("token", ["a\tb", "g\xa0h", "h\r"])
    def test_whitespace_inside_a_token_reports_line(self, token):
        for text, line in (
            (f"S ok .\n\nS x {token}\n", 3),
            (f"S a b\nA 0 1|||X|||{token}|||REQUIRED|||-NONE-|||0\n", 2),
        ):
            with pytest.raises(FormatError, match="whitespace") as err:
                parse_m2(text)
            assert err.value.line == line

    def test_character_mode_round_trip(self):
        text = "S 我 吃 饭\nA 1 2|||VERB|||喝|||REQUIRED|||-NONE-|||0\n"
        pairs = parse_m2(text)
        assert pairs[0].source.tokens == ("我", "吃", "饭")
        assert pairs[0].target.tokens == ("我", "喝", "饭")
        assert emit_m2(pairs) == text


class TestColaTsv:
    def test_parse_and_labels(self):
        instances = parse_cola_tsv("1\tthe cat sat\n0\tcat the sat\n")
        assert [i.label for i in instances] == [1, 0]
        assert instances[0].sentence.tokens == ("the", "cat", "sat")

    def test_round_trip_byte_identical(self):
        text = "1\ta b c\n0\td e\n"
        assert emit_cola_tsv(parse_cola_tsv(text)) == text

    def test_non_binary_label_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_cola_tsv("2\ta b\n")
        assert err.value.line == 1

    def test_missing_tab_rejected(self):
        with pytest.raises(FormatError):
            parse_cola_tsv("1 a b\n")

    def test_whitespace_inside_a_token_reports_line(self):
        with pytest.raises(FormatError, match="whitespace") as err:
            parse_cola_tsv("1\ta b\n0\tg\xa0h\n")
        assert err.value.line == 2

    def test_bad_origin_rejected(self):
        with pytest.raises(InvalidEditSet):
            ColaInstance(Sentence(("a",)), 1, origin="scraped")


# Tokens of any characters but whitespace, which separates them.
_TOKENS = st.text(st.characters(), min_size=1, max_size=4).filter(lambda t: t.split() == [t])
_SENTENCES = st.lists(_TOKENS, max_size=4).map(lambda tokens: Sentence(tuple(tokens)))


class TestSentenceFiles:
    def test_one_line_per_sentence(self):
        sentences = [Sentence(("a", "b")), Sentence(()), Sentence(("日本",))]
        assert emit_sentences(sentences) == "a b\n\n日本\n"
        assert emit_sentences([]) == ""

    def test_lenient_reader(self):
        assert parse_sentences("") == []
        assert parse_sentences("\n") == [Sentence(())]
        # Any whitespace run separates tokens, and the final newline may be missing.
        assert parse_sentences("a\t b\x85c\n d") == [Sentence(("a", "b", "c")), Sentence(("d",))]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(_SENTENCES, max_size=6))
    @example([])
    @example([Sentence(())])
    @example([Sentence(()), Sentence(("a",)), Sentence(())])
    def test_round_trip(self, sentences):
        assert parse_sentences(emit_sentences(sentences)) == sentences


class TestOutputFiles:
    def test_write_text_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer old content\n", encoding="utf-8")
        write_text(path, "new \u00e9\n")
        assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_serialization_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"ok": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"bad": {1, 2}})  # a set is not JSON
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "params.npy"
        path.write_bytes(b"old bytes")

        def write(fh):
            fh.write(b"half of the new")
            fh.flush()
            assert [p.name for p in tmp_path.iterdir()] != ["params.npy"]  # a new file exists
            raise RuntimeError("serialization failed")

        with pytest.raises(RuntimeError, match="serialization failed"):
            replace_file(path, write)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["params.npy"]
