import io
import pickle

import pytest
from hypothesis import given, strategies as st

from pivotlex.lexicon import (
    BilingualDictionary,
    PairSet,
    ParseError,
    Word,
    invert_dictionary,
    normalize_word,
    parse_dictionary,
    parse_gold_standard,
    parse_pair_file,
    validate_lang,
    write_pair_set,
    write_result_pairs,
)


class TestNormalizeWord:
    def test_trims_and_folds(self):
        assert normalize_word("  Hond ") == "hond"

    def test_collapses_internal_whitespace(self):
        assert normalize_word("ice  cream") == "ice cream"

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            normalize_word("")
        with pytest.raises(ValueError):
            normalize_word("   ")

    def test_unicode_composition(self):
        decomposed = "élève"  # e + combining accents
        assert normalize_word(decomposed) == "élève"

    @given(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Zs", "Mn")),
            min_size=1,
        )
    )
    def test_idempotent(self, raw):
        try:
            once = normalize_word(raw)
        except ValueError:
            return
        assert normalize_word(once) == once


class TestValidateLang:
    def test_accepts_iso_style(self):
        assert validate_lang("deu") == "deu"

    @pytest.mark.parametrize("bad", ["", "DEU", "d e", "d\tu"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_lang(bad)


class TestParseDictionary:
    def test_single_line(self):
        d = parse_dictionary("hond\tdog\n", "nld", "eng")
        assert d.entries == frozenset({(Word("nld", "hond"), Word("eng", "dog"))})

    def test_duplicates_collapse(self):
        d = parse_dictionary("a\tx\na\tx\n", "aaa", "bbb")
        assert len(d) == 1

    def test_three_fields_is_error_with_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dictionary("a\tx\tz\n", "aaa", "bbb")

    def test_error_line_number_counts_comments(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dictionary("# header\na\tx\nbroken\n", "aaa", "bbb")

    def test_comments_and_blanks_skipped(self):
        d = parse_dictionary("# comment\n\na\tx\n", "aaa", "bbb")
        assert len(d) == 1

    def test_empty_dictionary_is_error(self):
        with pytest.raises(ParseError):
            parse_dictionary("# nothing\n", "aaa", "bbb")

    def test_normalization_applied(self):
        d = parse_dictionary("Hond\tDOG\n", "nld", "eng")
        ((s, t),) = d.entries
        assert (s.surface, t.surface) == ("hond", "dog")

    def test_no_normalize_keeps_case(self):
        d = parse_dictionary("Hond\tDOG\n", "nld", "eng", normalize=False)
        ((s, t),) = d.entries
        assert (s.surface, t.surface) == ("Hond", "DOG")

    def test_accepts_stream(self):
        d = parse_dictionary(io.StringIO("a\tx\n"), "aaa", "bbb")
        assert len(d) == 1


class TestWord:
    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            Word("aaa", "")

    def test_immutable(self):
        w = Word("aaa", "x")
        with pytest.raises(AttributeError):
            w.surface = "y"
        with pytest.raises(AttributeError):
            w.extra = 1

    def test_equality_order_and_hash_follow_lang_then_surface(self):
        words = [Word("bbb", "a"), Word("aaa", "z"), Word("aaa", "b")]
        assert sorted(words) == [Word("aaa", "b"), Word("aaa", "z"), Word("bbb", "a")]
        assert Word("aaa", "x") == Word("aaa", "x")
        assert Word("aaa", "x") != Word("bbb", "x")
        for w in words:
            assert hash(w) == hash((w.lang, w.surface))

    def test_pickle_round_trip(self):
        w = Word("aaa", "ŝe")
        back = pickle.loads(pickle.dumps(w))
        assert back == w and type(back) is Word

    def test_repr(self):
        assert repr(Word("aaa", "x")) == "Word(lang='aaa', surface='x')"


class TestDictionaryInvariants:
    def test_same_language_rejected(self):
        with pytest.raises(ValueError):
            BilingualDictionary("aaa", "aaa", frozenset())

    def test_mismatched_entry_language(self):
        with pytest.raises(ValueError):
            BilingualDictionary(
                "aaa", "bbb", frozenset({(Word("xxx", "a"), Word("bbb", "b"))})
            )

    def test_invert(self):
        d = parse_dictionary("a\tx\n", "aaa", "bbb")
        inv = invert_dictionary(d)
        assert inv.source == "bbb" and inv.target == "aaa"
        assert (Word("bbb", "x"), Word("aaa", "a")) in inv.entries


class TestGoldStandard:
    def test_basic(self):
        ps = parse_gold_standard("a\tx\n", "aaa", "ccc")
        assert ps.pairs == frozenset({(Word("aaa", "a"), Word("ccc", "x"))})

    def test_duplicates_collapse(self):
        ps = parse_gold_standard("a\tx\na\tx\n", "aaa", "ccc")
        assert len(ps) == 1

    def test_single_field_is_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_gold_standard("a\n", "aaa", "ccc")


class _Pair:
    def __init__(self, a, c, stage="cognate", cost=0.0):
        self.word_a = Word("aaa", a)
        self.word_c = Word("ccc", c)
        self.stage = stage
        self.cost = cost


class TestWriteResultPairs:
    def test_single_pair_format(self):
        sink = io.StringIO()
        write_result_pairs([_Pair("a", "x")], sink)
        assert sink.getvalue() == "a\tx\tcognate\t0.000000\n"

    def test_empty_list(self):
        sink = io.StringIO()
        write_result_pairs([], sink)
        assert sink.getvalue() == ""

    def test_output_sorted(self):
        sink = io.StringIO()
        write_result_pairs([_Pair("b", "y"), _Pair("a", "x")], sink)
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("a\tx") and lines[1].startswith("b\ty")

    def test_round_trip_through_pair_file(self):
        sink = io.StringIO()
        write_result_pairs([_Pair("a", "x", cost=0.25), _Pair("b", "y")], sink)
        ps = parse_pair_file(sink.getvalue(), "aaa", "ccc")
        assert ps.pairs == frozenset(
            {
                (Word("aaa", "a"), Word("ccc", "x")),
                (Word("aaa", "b"), Word("ccc", "y")),
            }
        )


class TestPairSetRoundTrip:
    def test_write_parse_round_trip(self):
        ps = PairSet(
            "aaa",
            "ccc",
            frozenset(
                {
                    (Word("aaa", "a"), Word("ccc", "x")),
                    (Word("aaa", "b"), Word("ccc", "y")),
                }
            ),
        )
        sink = io.StringIO()
        write_pair_set(ps, sink)
        again = parse_gold_standard(sink.getvalue(), "aaa", "ccc")
        assert again == ps
