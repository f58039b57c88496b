import io

import pytest
from hypothesis import given, strategies as st

from singprep import (
    CMU_PHONES,
    ENGLISH,
    MANDARIN,
    LyricToken,
    OovError,
    ParseError,
    default_lexicon,
    g2p,
    segment_lyrics,
    split_pinyin,
)
from singprep.lexicon import DEFAULT_INITIALS, Lexicon, language_of, token_phones

PINYIN_GOLDENS = {
    "rang": ["R", "AE", "NG"],
    "wo": ["W", "AO"],
    "nuan": ["N", "UW", "AE", "N"],
    "yang": ["Y", "AE", "NG"],
    "zhui": ["JH", "UW", "IY"],
}

ENGLISH_GOLDENS = {
    "cat": ["K", "AE", "T"],
    "fan": ["F", "AE", "N"],
    "song": ["S", "AO", "NG"],
    "total": ["T", "OW", "T", "AH", "L"],
    "story": ["S", "T", "AO", "R", "IY"],
}


class TestCmuDictLoading:
    def test_stress_digits_stripped(self):
        lex = Lexicon()
        lex.load_cmu_dict(io.StringIO("CAT  K AE1 T\n"))
        assert lex.english_entries["CAT"] == ("K", "AE", "T")

    def test_multi_stress_word(self):
        lex = Lexicon()
        lex.load_cmu_dict(io.StringIO("TOTAL  T OW1 T AH0 L\n"))
        assert lex.english_entries["TOTAL"] == ("T", "OW", "T", "AH", "L")

    def test_empty_stream_is_empty_fragment(self):
        lex = Lexicon()
        lex.load_cmu_dict(io.StringIO(""))
        assert lex.english_entries == {}

    def test_comments_skipped(self):
        lex = Lexicon()
        lex.load_cmu_dict(io.StringIO(";;; header\nDOG  D AO1 G\n"))
        assert set(lex.english_entries) == {"DOG"}

    def test_alternate_pronunciation_discarded(self):
        lex = Lexicon()
        lex.load_cmu_dict(io.StringIO("READ  R IY1 D\nREAD(2)  R EH1 D\n"))
        assert lex.english_entries["READ"] == ("R", "IY", "D")

    def test_malformed_line_reports_line_number(self):
        lex = Lexicon()
        with pytest.raises(ParseError, match="line 2"):
            lex.load_cmu_dict(io.StringIO("OK  K\nBROKEN\n"))


class TestPinyinMapLoading:
    def test_entry_parsed(self):
        lex = Lexicon()
        lex.load_pinyin_map(io.StringIO("ang AE NG\n"))
        assert lex.pinyin_entries["ang"] == ("AE", "NG")

    def test_duplicate_key_last_wins(self):
        lex = Lexicon()
        lex.load_pinyin_map(io.StringIO("a AA\na AE\n"))
        assert lex.pinyin_entries["a"] == ("AE",)

    def test_empty_phoneme_column_rejected(self):
        lex = Lexicon()
        with pytest.raises(ParseError):
            lex.load_pinyin_map(io.StringIO("ang\n"))


class TestUnitGoldens:
    @pytest.mark.parametrize("syllable,phones", sorted(PINYIN_GOLDENS.items()))
    def test_pinyin_syllables(self, lexicon, syllable, phones):
        assert list(lexicon.lookup_pinyin(syllable)) == phones

    @pytest.mark.parametrize("word,phones", sorted(ENGLISH_GOLDENS.items()))
    def test_english_words(self, lexicon, word, phones):
        assert list(lexicon.lookup_english(word)) == phones

    def test_english_lookup_case_insensitive(self, lexicon):
        assert lexicon.lookup_english("CaT") == lexicon.lookup_english("cat")


class TestSegmentLyrics:
    def test_mixed_line(self):
        toks = segment_lyrics("我和你 from one world")
        assert [(t.surface, t.language) for t in toks] == [
            ("我", MANDARIN), ("和", MANDARIN), ("你", MANDARIN),
            ("from", ENGLISH), ("one", ENGLISH), ("world", ENGLISH),
        ]

    def test_empty_string(self):
        assert segment_lyrics("") == []

    def test_single_english_word(self):
        toks = segment_lyrics("hello")
        assert [(t.surface, t.language) for t in toks] == [("hello", ENGLISH)]

    def test_punctuation_and_digits_dropped(self):
        toks = segment_lyrics("cat, dog! 42")
        assert [t.surface for t in toks] == ["cat", "dog"]

    def test_each_han_char_is_own_token(self):
        toks = segment_lyrics("我和")
        assert len(toks) == 2
        assert all(t.language == MANDARIN for t in toks)

    def test_unsupported_character_named_in_error(self):
        with pytest.raises(ParseError, match="а"):
            segment_lyrics("абв")


@pytest.mark.parametrize("text,language", [
    ("我", MANDARIN), ("la我", MANDARIN), ("world", ENGLISH), ("", ENGLISH), ("ni3", ENGLISH),
])
def test_language_of(text, language):
    assert language_of(text) == language


class TestSplitPinyin:
    def test_two_letter_initial(self):
        assert split_pinyin("zhui") == ("zh", "ui")

    def test_zero_initial(self):
        assert split_pinyin("an") == ("", "an")

    def test_single_letter_initial(self):
        assert split_pinyin("cun") == ("c", "un")

    def test_two_letter_beats_one_letter_prefix(self):
        # z is also an initial; zh must win
        initial, final = split_pinyin("zhang")
        assert initial == "zh"

    def test_empty_final_rejected(self):
        with pytest.raises(ParseError):
            split_pinyin("zh")

    def test_round_trips_over_bundled_unit_pairs(self, lexicon):
        initials = [u for u in lexicon.pinyin_entries if lexicon.is_initial(u)]
        finals = [u for u in lexicon.pinyin_entries if not lexicon.is_initial(u)]
        for initial in [""] + initials:
            for final in finals:
                assert split_pinyin(initial + final) == (initial, final)


class TestG2p:
    def test_single_pinyin_token(self, lexicon):
        seq = g2p([LyricToken("wo", MANDARIN)], lexicon)
        assert list(seq.phonemes) == ["W", "AO"]
        assert list(seq.language_tokens) == [1, 1]

    def test_empty_input(self, lexicon):
        seq = g2p([], lexicon)
        assert seq.phonemes == () and seq.language_tokens == ()

    def test_mixed_example_token_layout(self, lexicon):
        seq = g2p(segment_lyrics("我和你 from one world"), lexicon)
        assert len(seq.phonemes) == 17
        assert list(seq.language_tokens) == [1] * 6 + [0] * 11
        assert len(seq.phonemes) == len(seq.language_tokens)

    def test_oov_english_raises_with_token(self, lexicon):
        with pytest.raises(OovError) as err:
            g2p([LyricToken("qwzzz", ENGLISH)], lexicon)
        assert err.value.token == "qwzzz"

    def test_oov_hanzi_raises(self):
        with pytest.raises(OovError):
            g2p([LyricToken("生", MANDARIN)], Lexicon())

    def test_concatenation_homomorphism(self, lexicon):
        a = segment_lyrics("我和")
        b = segment_lyrics("cat story")
        joined = g2p(a + b, lexicon)
        parts = g2p(a, lexicon), g2p(b, lexicon)
        assert joined.phonemes == parts[0].phonemes + parts[1].phonemes
        assert joined.language_tokens == parts[0].language_tokens + parts[1].language_tokens

    def test_all_emitted_phones_in_cmu_set(self, lexicon):
        seq = g2p(segment_lyrics("我和你 from one world cat total story"), lexicon)
        assert set(seq.phonemes) <= set(CMU_PHONES)

    def test_token_phones_hanzi_vs_pinyin_agree(self, lexicon):
        via_hanzi = token_phones(LyricToken("我", MANDARIN), lexicon)
        via_pinyin = token_phones(LyricToken("wo", MANDARIN), lexicon)
        assert via_hanzi == via_pinyin


class TestLexiconInvariants:
    def test_every_entry_in_cmu_set(self, lexicon):
        for table in (lexicon.english_entries, lexicon.pinyin_entries):
            for phones in table.values():
                assert phones, "empty expansion"
                assert set(phones) <= set(CMU_PHONES)

    def test_two_letter_initials_precede_prefixes(self):
        order = list(DEFAULT_INITIALS)
        for two in ("zh", "ch", "sh"):
            assert order.index(two) < order.index(two[0])

    def test_hanzi_readings_resolve(self, lexicon):
        for char, reading in lexicon.hanzi_readings.items():
            assert lexicon.lookup_pinyin(reading)


@given(st.lists(st.sampled_from(["我", "和", "你", "cat", "fan", "story", "one"]),
                max_size=12))
def test_g2p_lengths_and_token_values_property(words):
    lexicon = default_lexicon()
    toks = segment_lyrics(" ".join(words))
    seq = g2p(toks, lexicon)
    assert len(seq.phonemes) == len(seq.language_tokens)
    assert set(seq.language_tokens) <= {0, 1}
