"""The columnar pronouncing dictionary against the object-building reference.

The parser, the dictionary vocabulary (with trigger phrases), the n-gram
vocabulary, the blocklist and the probe sampling each read the
dictionary's columns; each is checked here against the per-line,
per-variant objects of ``tests/oracles.py``.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ALPHABET,
    dictionary_listing,
    random_models,
    reference_blocklist,
    reference_dictionary_candidates,
    reference_extract_ngrams,
    reference_join_rows,
    reference_listing,
    reference_load_dictionary,
    reference_phrase_phones,
    reference_sample_probe_words,
)
from triggercraft import candidates, lexicon
from triggercraft.candidates import (
    Candidate,
    Vocabulary,
    build_blocklist,
    dictionary_candidates,
    extract_ngrams,
    normalize_label,
    rank_candidates,
)
from triggercraft.distance import CostContext
from triggercraft.errors import NoQualifyingWords, TriggerCraftError
from triggercraft.lexicon import (
    PhoneCodes,
    WakeWordSpec,
    join_rows,
    load_dictionary,
    phrase_phones,
)
from triggercraft.tuning import TriggerRanks, filter_triggers, grid_search, load_trigger_labels
from triggercraft.weights import sample_probe_words
from triggercraft.workbench import load_config

# Entry names: plain and lower-case words, variants in and out of order, and
# the malformed suffixes: empty, zero, unbalanced, too long for int64 (still a
# variant), too long for int() (a bad variant index).
NAMES = [
    "A", "B", "a", "Foo", "O'CLOCK", "A(2)", "A(3)", "b(2)", "A()", "A(0)", "FOO)",
    "A(2)(3)", "(2)", "A(02)", "A(99999999999999999999)", "A(" + "9" * 5000 + ")",
]
# Phone tokens: stress-marked, lower-case, unknown, and a digit in the middle.
TOKENS = ["AH", "AH0", "ah1", "EH2", "K", "s", "T", "OW", "QX", "AH3", "A0H"]

names = st.sampled_from(NAMES) | st.text(alphabet="ABab()0129'", min_size=1, max_size=6)
entries = st.builds(
    lambda name, sep, tokens: name + sep + " ".join(tokens),
    names, st.sampled_from([" ", "  ", "\t"]), st.lists(st.sampled_from(TOKENS), min_size=1,
                                                       max_size=4),
)
other_lines = st.sampled_from(["", "   ", ";;; comment", "  ;;; indented", ";;;", ";;;A AH"])
dictionary_files = st.lists(
    entries | other_lines | names | st.text(max_size=12), max_size=12,
).map(lambda lines: [line + "\n" for line in lines])


def outcome(parse, lines):
    """What ``parse`` returns, or the class, text and line of its error."""
    try:
        return parse(lines)
    except TriggerCraftError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=400, deadline=None)
@given(lines=dictionary_files)
@example(lines=["A  AH\n", "B  K\n", "A(2)  T\n"])
@example(lines=["A(3)  AH\n", "A  K\n", "A(2)  T\n", "A(2)  OW\n"])
@example(lines=["A(99999999999999999999)  AH\n", "A  K0\n"])
@example(lines=["A(" + "9" * 5000 + ")  AH\n"])
@example(lines=["A()  AH\n", "FOO)  K\n", "a(0)  T\n"])
@example(lines=["hey  hh ey1\n", "ONE\n"])
def test_dictionary_parses_like_the_object_reference(lines):
    expected = outcome(lambda ls: reference_listing(reference_load_dictionary(ls)), lines)
    assert outcome(lambda ls: dictionary_listing(load_dictionary(ls)), lines) == expected
    if isinstance(expected, list):
        dictionary = load_dictionary(lines)
        reference = reference_load_dictionary(lines)
        assert dictionary.entry_map() == {w: [v.phones for v in vs] for w, vs in reference.items()}
        for word, variants in reference.items():  # at most 12 variants: under the phrase cap
            assert phrase_phones(dictionary, [word]) == [v.phones for v in variants]


@st.composite
def dictionary_rows(draw):
    """(word, variant, phones) rows in any order, over four of the six test phones."""
    rows = []
    for word in range(draw(st.integers(1, 10))):
        for variant in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)):
            phones = draw(st.lists(st.sampled_from(ALPHABET[:4]), min_size=1, max_size=5))
            rows.append((f"W{word}", variant, tuple(phones)))
    return draw(st.permutations(rows))


def dictionary_file(rows):
    return [f"{w}({v})  {' '.join(p)}\n" if v > 1 else f"{w}  {' '.join(p)}\n"
            for w, v, p in rows]


def first_use(lines):
    """The phone symbols of a :func:`dictionary_file`, in the file's order of first use."""
    return tuple(dict.fromkeys(token for line in lines for token in line.split()[1:]))


def codes_fields(codes):
    """Every column and group of a PhoneCodes, as plain values, each code read
    as its symbol: a dictionary numbers its symbols in the file's order of
    first use, a vocabulary of candidates in their rows' order."""
    symbols = np.array(codes.phones)
    return (sorted(codes.phones), codes.counts.tolist(), codes.lengths.tolist(), codes.codes.dtype,
            symbols[codes.codes].tolist(),
            [(p.tolist(), b.dtype, symbols[b].tolist()) for p, b in codes.groups])


@settings(max_examples=200, deadline=None)
@given(rows=dictionary_rows())
def test_permuted_file_loads_like_the_reference(rows):
    lines = dictionary_file(rows)
    dictionary = load_dictionary(lines)
    assert dictionary_listing(dictionary) == reference_listing(reference_load_dictionary(lines))
    # Sorting the rows leaves the phone symbols in the file's order of first use.
    assert dictionary.codes.phones == first_use(lines)


# Wake phones: the dictionary's four, two it never uses, and one outside
# the inventory; up to eight, longer than any pronunciation.
wake_phones = st.lists(st.sampled_from(ALPHABET + ("QX",)), min_size=1, max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(rows=dictionary_rows(), phones=wake_phones)
@example(rows=[("W0", 1, ("AA", "B")), ("W1", 1, ("B",))], phones=("S", "AA", "B", "T"))
def test_blocklist_equals_the_per_variant_walk(rows, phones):
    lines = dictionary_file(rows)
    wake = WakeWordSpec(id="T", text="Wake Word", phones=phones, explicit_blocklist=("W9",))
    expected = reference_blocklist(wake, reference_load_dictionary(lines))
    assert build_blocklist(wake, load_dictionary(lines)) == expected


@settings(max_examples=150, deadline=None)
@given(rows=dictionary_rows(), phones=wake_phones, seed=st.integers(0, 2**32 - 1))
def test_dictionary_vocabulary_equals_one_of_candidates(rows, phones, seed):
    lines = dictionary_file(rows)
    dictionary = load_dictionary(lines)
    vocab = Vocabulary.from_dictionary(dictionary)
    expected = Vocabulary(reference_dictionary_candidates(reference_load_dictionary(lines)))
    assert vocab.normalized_labels == expected.normalized_labels
    assert vocab.codes.phones == first_use(lines)
    assert codes_fields(vocab.codes) == codes_fields(expected.codes)

    rng = random.Random(seed)
    keep = np.array([rng.random() < 0.8 for _ in range(len(vocab))])
    for model in random_models(rng, ALPHABET):
        got = CostContext(phones, model).score(vocab.codes, keep)
        assert got.tobytes() == CostContext(phones, model).score(expected.codes, keep).tobytes()

    assert list(vocab) == list(expected) == list(Vocabulary(dictionary_candidates(dictionary)))
    assert [id(c) for c in vocab] == [id(vocab[i]) for i in range(len(vocab))]
    assert vocab[-1] is vocab[len(vocab) - 1]
    assert vocab[1:] == tuple(vocab)[1:]


@st.composite
def phrase_vocabularies(draw):
    """A dictionary file and trigger labels over its words: phrases of up
    to three words, in any case and spacing, single words among them."""
    lines = dictionary_file(draw(dictionary_rows()))
    words = sorted({line.split()[0].split("(")[0] for line in lines})
    labels = draw(st.lists(
        st.builds(lambda ws, sep: sep.join(ws),
                  st.lists(st.sampled_from(words + [w.lower() for w in words]),
                           min_size=1, max_size=3),
                  st.sampled_from([" ", "  ", "\t"])),
        max_size=4))
    return lines, labels


@settings(max_examples=150, deadline=None)
@given(vocabulary=phrase_vocabularies(), phones=wake_phones, seed=st.integers(0, 2**32 - 1))
@example(vocabulary=(dictionary_file([(w, v, ("AA",) * v) for w in ("W0", "W1", "W2")
                                      for v in (1, 2, 3)]), ["W0 w1 W2", "w1", "w0  W1"]),
         phones=("AA", "B"), seed=0)
def test_phrase_rows_are_the_candidates_tune_built(vocabulary, phones, seed):
    lines, labels = vocabulary
    dictionary = load_dictionary(lines)
    vocab = Vocabulary.from_dictionary(dictionary, labels)
    # The vocabulary tune built from objects: the words, then each new
    # normalized label as a "trigger" candidate with phrase_phones' tuples.
    words = reference_dictionary_candidates(reference_load_dictionary(lines))
    known, extra = {c.label for c in words}, []
    for label in map(normalize_label, labels):
        if label not in known:
            known.add(label)
            prons = tuple(phrase_phones(dictionary, label.split()))
            assert prons == tuple(reference_phrase_phones(reference_load_dictionary(lines),
                                                          label.split()))
            extra.append(Candidate(label, prons, source="trigger"))
    expected = Vocabulary([*words, *extra])

    assert vocab.labels == expected.labels
    assert vocab.normalized_labels == expected.normalized_labels
    assert vocab.codes.phones == first_use(lines)
    assert codes_fields(vocab.codes) == codes_fields(expected.codes)
    # With no new label the vocabulary shares the dictionary's codes.
    assert (vocab.codes is dictionary.codes) == (not extra)
    for idx, cand in enumerate(extra, len(words)):  # decoded from the joined rows
        assert vocab[idx].prons == cand.prons and vocab[idx].source == "trigger"
    rng = random.Random(seed)
    keep = np.array([rng.random() < 0.8 for _ in range(len(vocab))])
    for model in random_models(rng, ALPHABET):
        got = CostContext(phones, model).score(vocab.codes, keep)
        assert got.tobytes() == CostContext(phones, model).score(expected.codes, keep).tobytes()
    assert list(vocab) == list(expected)


# Words the transcript tokenizer keeps whole: letters and apostrophes only.
NGRAM_WORDS = ("a", "be", "cat", "don't", "echo", "o'er")
# Tokens without an entry, and what may separate tokens on a line.
OOV_TOKENS = ("zyzzyva", "q", "'", "it's", "don't'")
SEPARATORS = (" ", "  ", ", ", "! ", " -- ", "\t", "3", "\u00e9", "'s ")


@st.composite
def ngram_corpora(draw):
    """Dictionary rows of letter words with one to four variants each, and
    transcript lines of those words in any case, out-of-vocabulary tokens
    and punctuation."""
    rows = []
    for word in draw(st.lists(st.sampled_from(NGRAM_WORDS), min_size=1, unique=True)):
        for variant in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True)):
            phones = draw(st.lists(st.sampled_from(ALPHABET[:4]), min_size=1, max_size=4))
            rows.append((word.upper(), variant, tuple(phones)))
    words = sorted({row[0] for row in rows})
    cased = st.builds(lambda word, case: case(word), st.sampled_from(words),
                      st.sampled_from([str.lower, str.upper, str.title]))
    token = cased | st.sampled_from(OOV_TOKENS)
    line = st.lists(st.tuples(token, st.sampled_from(SEPARATORS)), max_size=8).map(
        lambda pairs: "".join(token + sep for token, sep in pairs))
    return rows, draw(st.lists(line, max_size=5))


@settings(max_examples=200, deadline=None)
@given(corpus=ngram_corpora(), n=st.integers(1, 3), phones=wake_phones,
       seed=st.integers(0, 2**32 - 1))
# Three words of three variants each: 27 combinations, past the cap of 16.
@example(corpus=([(w, v, (p,) * v) for w, p in (("A", "AA"), ("BE", "B"), ("CAT", "K"))
                  for v in (1, 2, 3)], ["A be, CAT!", "a BE cat zyzzyva"]),
         n=3, phones=("AA", "K"), seed=0)
def test_ngram_vocabulary_is_the_candidates_of_joined_phrases(corpus, n, phones, seed):
    rows, lines = corpus
    dictionary = load_dictionary(dictionary_file(rows))
    expected, dropped = reference_extract_ngrams(
        reference_load_dictionary(dictionary_file(rows)), lines, n)
    with mock.patch.object(candidates.log, "warning") as warning:
        vocab = extract_ngrams(lines, n, dictionary)
    if dropped:
        warning.assert_called_once_with("dropped %d out-of-vocabulary %d-grams", dropped, n)
    else:
        warning.assert_not_called()
    assert vocab.labels == vocab.normalized_labels == tuple(c.label for c in expected)
    if not expected:
        assert len(vocab) == 0
        return
    reference = Vocabulary(expected)
    rng = random.Random(seed)
    keep = np.array([rng.random() < 0.8 for _ in range(len(vocab))])
    models = random_models(rng, ALPHABET)
    for model in models:
        got = CostContext(phones, model).score(vocab.codes, keep)
        assert got.tobytes() == CostContext(phones, model).score(reference.codes, keep).tobytes()
    wake, k = WakeWordSpec(id="T", text="zz", phones=phones), rng.randint(1, len(expected))
    for model in models:
        assert (rank_candidates(vocab, wake, model, k, seed)
                == rank_candidates(reference, wake, model, k, seed))
    # Label, pronunciations (capped), source, count and order.
    assert list(vocab) == expected


@st.composite
def phrase_batches(draw):
    """Words of 1 to 20 rows each, and phrases of 1 to 4 of them, lengths mixed."""
    words = draw(st.lists(
        st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3).map(tuple),
                 min_size=1, max_size=20),
        min_size=1, max_size=6))
    word_id = st.integers(0, len(words) - 1)
    phrases = draw(st.lists(st.lists(word_id, min_size=1, max_size=4), max_size=6))
    return PhoneCodes(words), phrases


@settings(max_examples=300, deadline=None)
@given(batch=phrase_batches())
# 17 rows (one past the cap) after a 2-row word, and 16 after a 1-row word.
@example(batch=(PhoneCodes([[("AA",), ("B",)], [("IY",) * k for k in range(1, 18)],
                            [("K",) * k for k in range(1, 17)], [("S",)]]),
                [[1], [0, 1], [1, 0], [3, 2], [2, 3, 3], [0, 0, 0, 0]]))
def test_joined_rows_equal_the_product_reference(batch):
    codes, phrases = batch
    got = join_rows(codes, phrases)
    assert [column.tolist() for column in got] == list(reference_join_rows(codes, phrases))
    assert [column.dtype for column in got] == [np.dtype(np.intp)] * 2 + [codes.codes.dtype]


def test_joining_no_phrases_and_an_empty_phrase():
    codes = PhoneCodes([[("AA",), ("B",)]])
    assert [column.tolist() for column in join_rows(codes, [])] == [[], [], []]
    for phrases in ([[]], [[0], []]):
        with pytest.raises(ValueError, match="empty phrase"):
            join_rows(codes, phrases)
        with pytest.raises(ValueError, match="empty phrase"):
            reference_join_rows(codes, phrases)


def test_ngrams_build_candidates_only_for_what_is_read(fixtures_dir, monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(Candidate(*args, **kwargs))
        return built[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("phone tuples were built")

    config = load_config(fixtures_dir / "config.json")
    dictionary, wake, model = config.dictionary(), config.wake_word("VA1"), config.model("simple")
    with open(fixtures_dir / "transcripts.txt", encoding="utf-8") as fh:
        lines = fh.readlines()
    monkeypatch.setattr(candidates, "Candidate", counted)
    monkeypatch.setattr(lexicon, "encode_phones", forbidden)  # no vocabulary is encoded again
    with monkeypatch.context() as patched:
        patched.setattr(lexicon.PhoneCodes, "decode", forbidden)
        vocab = extract_ngrams(lines, 2, dictionary)
    assert built == [] and len(vocab) > 3
    assert Vocabulary.of(vocab) is vocab
    ranked = rank_candidates(vocab, wake, model, k=3, seed=1)
    assert built == [item.candidate for item in ranked.items] and len(built) == 3
    assert rank_candidates(vocab, wake, model, k=3, seed=1) == ranked
    assert len(built) == 3  # the second ranking reuses them


@settings(max_examples=150, deadline=None)
@given(rows=dictionary_rows(), phone=st.sampled_from(ALPHABET + ("QX", "AA0")),
       n_words=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_probe_sampling_scans_the_codes_like_the_lookup_walk(rows, phone, n_words, seed):
    dictionary = load_dictionary(dictionary_file(rows))
    try:
        expected = reference_sample_probe_words(reference_load_dictionary(dictionary_file(rows)),
                                                phone, n_words, seed)
    except NoQualifyingWords:
        with pytest.raises(NoQualifyingWords):
            sample_probe_words(dictionary, phone, n_words, seed)
        return
    assert sample_probe_words(dictionary, phone, n_words, seed) == expected


def test_tune_reductions_build_no_objects(fixtures_dir, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an object was built")

    monkeypatch.setattr(lexicon.PhoneCodes, "decode", forbidden)  # no phone tuple is built
    monkeypatch.setattr(candidates, "Candidate", forbidden)
    config = load_config(fixtures_dir / "config.json")
    with open(fixtures_dir / "triggers.tsv", encoding="utf-8") as fh:
        triggers = load_trigger_labels(fh)
    assert "a lesson" in {t.trigger_label for t in triggers}  # a phrase trigger
    dictionary, wakes, grid = config.dictionary(), config.wake_words(), config.grid
    vocab = Vocabulary.from_dictionary(dictionary, [t.trigger_label for t in triggers])
    blocklists = {w.id: build_blocklist(w, dictionary) for w in wakes}
    table = config.weight_table()
    ranks = TriggerRanks(triggers, vocab, wakes, grid, "advanced", table, blocklists)
    for wake_id in ("VA1", "VA2", "VA3"):
        ranks.of(wake_id)
    kept = filter_triggers(triggers, vocab, wakes, grid, variant="advanced", table=table,
                           blocklists=blocklists, ranks=ranks)
    grid_search(kept, vocab, wakes, grid, "advanced", table, blocklists, ranks=ranks)


def test_parse_vocabulary_and_blocklist_build_no_objects(fixtures_dir, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an object was built")

    monkeypatch.setattr(lexicon.PhoneCodes, "decode", forbidden)  # no phone tuple is built
    monkeypatch.setattr(candidates, "Candidate", forbidden)
    config = load_config(fixtures_dir / "config.json")
    vocab = config.vocabulary()
    vocab.normalized_labels, vocab.codes
    build_blocklist(config.wake_word("VA1"), config.dictionary())
    monkeypatch.undo()
    assert vocab[0] is vocab[0]


def test_a_ranking_builds_only_the_candidates_it_lists_or_draws_from(fixtures_dir, monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(Candidate(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(candidates, "Candidate", counted)
    config = load_config(fixtures_dir / "config.json")
    vocab = config.vocabulary()
    wake, model = config.wake_word("VA1"), config.model("unweighted")
    ranked = rank_candidates(vocab, wake, model, k=3, seed=1)
    first = len(built)
    assert 3 <= first <= len(ranked.items) + ranked.boundary_pool_size < len(vocab)
    assert rank_candidates(vocab, wake, model, k=3, seed=1) == ranked
    assert len(built) == first  # the second ranking reuses them
