"""Phone parsing, dictionary loading, and phrase expansion."""

import io

import pytest

from triggercraft.errors import OutOfVocabulary, ParseError, UnknownPhone
from triggercraft.lexicon import (
    CONSONANTS,
    VOWELS,
    PhoneInventory,
    Pronunciation,
    PronouncingDictionary,
    load_dictionary,
    normalize_word,
    parse_phone,
    phrase_phones,
)


class TestInventory:
    def test_default_counts(self, inventory):
        assert len(inventory) == 39
        assert len(inventory.vowels) == 15
        assert len(inventory.consonants) == 24
        assert inventory.symbols == inventory.vowels | inventory.consonants

    def test_categories(self, inventory):
        assert inventory.phone("AH").category == "vowel"
        assert inventory.phone("ZH").category == "consonant"

    def test_unknown_symbol(self, inventory):
        with pytest.raises(UnknownPhone):
            inventory.phone("QX")

    def test_load_roundtrip(self, inventory):
        text = "".join(f"{s} vowel\n" for s in sorted(VOWELS))
        text += "".join(f"{s} consonant\n" for s in sorted(CONSONANTS))
        text += ";;; trailing comment\n\n"
        loaded = PhoneInventory.load(io.StringIO(text))
        assert loaded.symbols == inventory.symbols
        assert loaded.vowels == inventory.vowels

    def test_load_bad_class(self):
        with pytest.raises(ParseError) as err:
            PhoneInventory.load(["AH vowel\n", "K fricative\n"])
        assert err.value.line == 2

    def test_load_bad_shape(self):
        with pytest.raises(ParseError):
            PhoneInventory.load(["AH\n"])

    @pytest.mark.parametrize("second", ["ZZ consonant\n", "zz consonant\n", "ZZ vowel\n"],
                             ids=["other-class", "lower-case", "same-class"])
    def test_load_rejects_a_repeated_symbol(self, second):
        with pytest.raises(ParseError, match="'ZZ'") as err:
            PhoneInventory.load(["ZZ vowel\n", ";;; comment\n", second])
        assert err.value.line == 3


class TestParsePhone:
    @pytest.mark.parametrize(
        "token,symbol",
        [("AH0", "AH"), ("AH1", "AH"), ("AH2", "AH"), ("AH", "AH"), ("K", "K"), ("er0", "ER")],
    )
    def test_stress_stripped(self, token, symbol, inventory):
        assert parse_phone(token, inventory).symbol == symbol

    def test_only_trailing_digit_stripped(self, inventory):
        # A stray digit anywhere else is not stress notation.
        with pytest.raises(UnknownPhone):
            parse_phone("A0H", inventory)

    def test_unknown(self, inventory):
        with pytest.raises(UnknownPhone):
            parse_phone("ZZ9", inventory)

    def test_default_inventory(self):
        assert parse_phone("IY1").symbol == "IY"


class TestNormalizeWord:
    def test_upper_and_strip(self):
        assert normalize_word("  alexa ") == "ALEXA"
        assert normalize_word("O'CLOCK") == "O'CLOCK"


class TestLoadDictionary:
    def test_sample_entry(self, mini_dictionary):
        prons = mini_dictionary.lookup("alexa")
        assert len(prons) == 1
        assert prons[0].phones == ("AH", "L", "EH", "K", "S", "AH")

    def test_variants_ordered(self, mini_dictionary):
        prons = mini_dictionary.lookup("TOMATO")
        assert [p.variant_index for p in prons] == [1, 2]
        assert prons[0].phones == ("T", "AH", "M", "EY", "T", "OW")
        assert prons[1].phones == ("T", "AH", "M", "AA", "T", "OW")

    def test_lookup_is_case_insensitive(self, mini_dictionary):
        assert mini_dictionary.lookup("Echo")[0].phones == ("EH", "K", "OW")
        assert "eChO" in mini_dictionary

    def test_missing_word(self, mini_dictionary):
        with pytest.raises(OutOfVocabulary):
            mini_dictionary.lookup("xylophone")

    def test_comments_and_blanks_skipped(self):
        d = load_dictionary([";;; header\n", "\n", "HEY  HH EY1\n", "   \n"])
        assert len(d) == 1

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            load_dictionary(["HEY  HH EY1\n", "BROKEN\n"])
        assert err.value.line == 2

    def test_unknown_phone_line_number(self):
        with pytest.raises(UnknownPhone) as err:
            load_dictionary(["HEY  HH EY1\n", "FOO  QX1 AH0\n"])
        assert "line 2" in str(err.value)

    def test_duplicate_variant(self):
        with pytest.raises(ParseError) as err:
            load_dictionary(["A  AH0\n", "A  EY1\n"])
        assert err.value.line == 2

    def test_bad_variant_index(self):
        with pytest.raises(ParseError):
            load_dictionary(["A(0)  AH0\n"])

    def test_dump_roundtrip(self, mini_dictionary):
        buf = io.StringIO()
        mini_dictionary.dump(buf)
        reloaded = load_dictionary(io.StringIO(buf.getvalue()))
        assert reloaded.entry_map() == mini_dictionary.entry_map()

    def test_add_rejects_empty_pronunciation(self):
        with pytest.raises(ValueError):
            Pronunciation("X", 1, ())

    def test_words_iteration(self, mini_dictionary):
        words = set(mini_dictionary.words())
        assert {"ALEXA", "ECHO", "COMPUTER", "HEY"} <= words


class TestPhrasePhones:
    def test_single_word_matches_lookup(self, mini_dictionary):
        assert phrase_phones(mini_dictionary, ["echo"]) == [("EH", "K", "OW")]

    def test_variant_product(self, mini_dictionary):
        # THE has two variants, ECHO one: two combinations, first-variants first.
        prons = phrase_phones(mini_dictionary, ["the", "echo"])
        assert len(prons) == 2
        assert prons[0] == ("DH", "AH", "EH", "K", "OW")
        assert prons[1] == ("DH", "IY", "EH", "K", "OW")

    def test_cap_keeps_first_variants(self, mini_dictionary):
        # Five two-variant words make 32 combinations; the cap keeps 16 and
        # the all-first-variants combination is always the first survivor.
        words = ["the", "a", "tomato", "the", "a"]
        prons = phrase_phones(mini_dictionary, words)
        assert len(prons) == 16
        first = tuple(
            phone
            for w in words
            for phone in mini_dictionary.lookup(w)[0].phones
        )
        assert prons[0] == first

    def test_cap_override(self, mini_dictionary):
        assert len(phrase_phones(mini_dictionary, ["the", "a"], max_variants=3)) == 3

    def test_oov_word(self, mini_dictionary):
        with pytest.raises(OutOfVocabulary):
            phrase_phones(mini_dictionary, ["the", "xylophone"])

    def test_empty_phrase(self, mini_dictionary):
        with pytest.raises(ValueError):
            phrase_phones(mini_dictionary, [])
