"""Vocabulary generation, blocklists, top-K ranking, manifest export."""

import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ALPHABET, oracle_cost, one_at_a_time, random_models
from triggercraft.candidates import (
    Candidate,
    DEFAULT_VOICES,
    Vocabulary,
    Voice,
    blocked_labels,
    build_blocklist,
    dictionary_candidates,
    export_manifest,
    extract_ngrams,
    normalize_label,
    rank_candidates,
)
from triggercraft.distance import CostContext, CostModel, align, distance_to_wakeword
from triggercraft.errors import ConfigError, EmptyVocabulary, OutOfVocabulary
from triggercraft.lexicon import WakeWordSpec, load_dictionary

UNWEIGHTED = CostModel.unweighted()

# A ten-phone wake word whose candidates can be placed at exact distances
# k/10 by substituting k phones.
TIE_WAKE = WakeWordSpec(id="T", text="padded wake", phones=("B", "AA") * 5)


def _sub(positions):
    phones = list(TIE_WAKE.phones)
    for pos in positions:
        phones[pos] = "IY" if phones[pos] == "B" else "UW"
    return Candidate(label="", prons=(tuple(phones),))


def tie_vocab():
    """Five candidates at L = 0.1, 0.2, 0.2, 0.2, 0.3 from TIE_WAKE."""
    specs = {
        "one": (0,),
        "two a": (0, 2),
        "two b": (0, 4),
        "two c": (2, 6),
        "three": (0, 2, 4),
    }
    return [
        Candidate(label=label, prons=_sub(positions).prons)
        for label, positions in specs.items()
    ]


class TestNormalizeLabel:
    def test_lowercase_and_whitespace(self):
        assert normalize_label("  A   Lesson ") == "a lesson"


class TestDictionaryCandidates:
    def test_one_per_word_with_variants(self, mini_dictionary):
        cands = {c.label: c for c in dictionary_candidates(mini_dictionary)}
        assert len(cands) == len(mini_dictionary)
        assert cands["tomato"].prons == (
            ("T", "AH", "M", "EY", "T", "OW"),
            ("T", "AH", "M", "AA", "T", "OW"),
        )
        assert cands["echo"].source == "dictionary"

    def test_empty_pronunciations_rejected(self):
        with pytest.raises(ValueError):
            Candidate(label="x", prons=())


class TestBlockedLabels:
    def test_wake_text_explicit_entries_and_extra_normalized(self):
        wake = WakeWordSpec(id="W", text="Hey  Echo", phones=("HH", "EY"), explicit_blocklist=("ECHO ",))
        assert blocked_labels(wake) == {"hey echo", "echo"}
        assert blocked_labels(wake, ["  Alexa", "echo"]) == {"hey echo", "echo", "alexa"}


class TestBuildBlocklist:
    def test_homophones_of_the_wake_word(self, wake_by_id, mini_dictionary):
        # HAY sounds exactly like HEY; "a" can be pronounced EY, a piece of it.
        assert build_blocklist(wake_by_id["VA4"], mini_dictionary) == {"hey", "hay", "a"}

    def test_pieces_of_the_wake_word(self, wake_by_id, mini_dictionary):
        assert build_blocklist(wake_by_id["VA1"], mini_dictionary) == {"alexa", "a"}

    def test_explicit_entries_included(self, wake_by_id, mini_dictionary):
        blocked = build_blocklist(wake_by_id["VA2"], mini_dictionary)
        assert blocked == {"computer", "computed", "a"}

    def test_wake_text_blocked_even_when_out_of_vocabulary(self, mini_dictionary):
        wake = WakeWordSpec(id="X", text="Jarvis", phones=("JH", "AA", "R"))
        assert "jarvis" in build_blocklist(wake, mini_dictionary)

    def test_similar_but_not_contained_words_stay(self, wake_by_id, mini_dictionary):
        # LEXUS shares five phones with ALEXA but ends differently; COMMUTER
        # drops a phone from COMPUTER.  Neither is a contiguous piece.
        assert "lexus" not in build_blocklist(wake_by_id["VA1"], mini_dictionary)
        assert "commuter" not in build_blocklist(wake_by_id["VA2"], mini_dictionary)

    @settings(max_examples=60, deadline=None)
    @given(
        # Two phones: short words collide with the wake word's pieces often.
        wake=st.lists(st.sampled_from(ALPHABET[:2]), min_size=1, max_size=5).map(tuple),
        words=st.lists(
            st.lists(st.lists(st.sampled_from(ALPHABET[:2]), min_size=1, max_size=4),
                     min_size=1, max_size=2),
            min_size=1, max_size=20,
        ),
    )
    @example(wake=("AA", "B", "AA"), words=[[["AA", "AA"]], [["B", "AA"]]])  # gapped vs contiguous
    def test_matches_a_window_scan(self, wake, words):
        dictionary = load_dictionary(
            f"W{w}({v + 1})  {' '.join(phones)}\n"
            for w, variants in enumerate(words)
            for v, phones in enumerate(variants)
        )

        def is_piece(phones):
            return any(wake[i : i + len(phones)] == phones for i in range(len(wake)))

        expected = {"wake"} | {
            f"w{w}"
            for w, variants in enumerate(words)
            if any(is_piece(tuple(p)) for p in variants)
        }
        spec = WakeWordSpec(id="X", text="wake", phones=wake)
        assert build_blocklist(spec, dictionary) == expected


class TestRankCandidates:
    def test_boundary_tie_rule(self):
        ranked = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=2, seed=0)
        assert [item.rank for item in ranked.items] == [1, 2]
        assert ranked.items[0].candidate.label == "one"
        assert ranked.items[0].distance == 0.1
        assert ranked.items[1].candidate.label in {"two a", "two b", "two c"}
        assert ranked.items[1].distance == 0.2
        assert ranked.boundary_pool_size == 3

    def test_same_seed_is_stable(self):
        first = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=2, seed=41)
        second = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=2, seed=41)
        assert [i.candidate.label for i in first.items] == [
            i.candidate.label for i in second.items
        ]

    def test_all_tied_candidates_reachable_across_seeds(self):
        drawn = {
            rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=2, seed=seed)
            .items[1]
            .candidate.label
            for seed in range(40)
        }
        assert drawn == {"two a", "two b", "two c"}

    def test_seeds_differ_only_inside_the_tie_pool(self):
        for seed in range(10):
            ranked = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=3, seed=seed)
            labels = [i.candidate.label for i in ranked.items]
            assert labels[0] == "one"
            assert set(labels[1:]) <= {"two a", "two b", "two c"}

    def test_distinct_distances_no_draw(self):
        vocab = [c for c in tie_vocab() if c.label in ("one", "two a", "three")]
        ranked = rank_candidates(vocab, TIE_WAKE, UNWEIGHTED, k=2, seed=5)
        assert [i.candidate.label for i in ranked.items] == ["one", "two a"]
        assert ranked.boundary_pool_size == 0

    def test_exact_fill_involves_no_randomness(self):
        # One below the boundary, three tied, K=4: the ties exactly fill the
        # open slots, so every seed returns the same list and no pool is
        # reported.
        vocab = tie_vocab()[:4]  # one, two a, two b, two c
        lists = [
            rank_candidates(vocab, TIE_WAKE, UNWEIGHTED, k=4, seed=seed)
            for seed in (0, 1, 2)
        ]
        labels = [[i.candidate.label for i in r.items] for r in lists]
        assert labels[0] == labels[1] == labels[2]
        assert all(r.boundary_pool_size == 0 for r in lists)

    def test_small_vocab_returns_everything(self):
        ranked = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=50, seed=0)
        assert len(ranked.items) == 5
        assert ranked.boundary_pool_size == 0
        assert [i.rank for i in ranked.items] == [1, 2, 3, 4, 5]

    def test_distances_nondecreasing(self):
        ranked = rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=5, seed=0)
        distances = [i.distance for i in ranked.items]
        assert distances == sorted(distances)

    def test_matches_plain_sort_when_distinct(self, mini_dictionary, wake_by_id):
        # Oracle: with no boundary draw, top-K is a plain sort by distance.
        wake = wake_by_id["VA1"]
        vocab = dictionary_candidates(mini_dictionary)
        blocked = build_blocklist(wake, mini_dictionary)
        ranked = rank_candidates(
            vocab, wake, UNWEIGHTED, k=len(vocab), seed=0, blocklist=blocked
        )
        expected = sorted(
            (c for c in vocab if c.label not in blocked),
            key=lambda c: (
                min(align(wake.phones, p, UNWEIGHTED).L for p in c.prons),
                c.label,
            ),
        )
        assert [i.candidate.label for i in ranked.items] == [c.label for c in expected]

    def test_blocklisted_labels_never_ranked(self, mini_dictionary, wake_by_id):
        rng = random.Random(8)
        wake = wake_by_id["VA3"]
        vocab = dictionary_candidates(mini_dictionary)
        for _ in range(10):
            extra = {c.label for c in rng.sample(vocab, 5)}
            ranked = rank_candidates(vocab, wake, UNWEIGHTED, k=100, seed=1, blocklist=extra)
            labels = {i.candidate.label for i in ranked.items}
            assert not (labels & extra)
            assert "echo" not in labels  # wake word text always excluded

    def test_empty_vocabulary_after_filtering(self, wake_by_id):
        vocab = [Candidate(label="echo", prons=(("EH", "K", "OW"),))]
        with pytest.raises(EmptyVocabulary):
            rank_candidates(vocab, wake_by_id["VA3"], UNWEIGHTED, k=5, seed=0)

    def test_k_must_be_positive(self, wake_by_id):
        with pytest.raises(ValueError):
            rank_candidates(tie_vocab(), TIE_WAKE, UNWEIGHTED, k=0, seed=0)

    def test_batches_of_one_equal_bulk(self, mini_dictionary, wake_by_id, monkeypatch):
        wake = wake_by_id["VA2"]
        vocab = dictionary_candidates(mini_dictionary)
        bulk = rank_candidates(vocab, wake, UNWEIGHTED, k=10, seed=3)
        monkeypatch.setattr(CostContext, "row_costs", one_at_a_time(CostContext.row_costs))
        single = rank_candidates(vocab, wake, UNWEIGHTED, k=10, seed=3)
        assert [(i.rank, i.candidate.label, i.distance) for i in bulk.items] == [
            (i.rank, i.candidate.label, i.distance) for i in single.items
        ]
        assert bulk.boundary_pool_size == single.boundary_pool_size


def full_sort_top_k(vocab, wake, model, k, seed):
    """Reference selection: sort every candidate, then apply the tie rule."""
    costs = [min(oracle_cost(wake.phones, p, model) for p in c.prons) for c in vocab]
    order = sorted(range(len(vocab)), key=lambda idx: (costs[idx], vocab[idx].label, idx))
    if len(vocab) <= k:
        return order, 0
    boundary = costs[order[k - 1]]
    below = [idx for idx in order if costs[idx] < boundary]
    pool = [idx for idx in order if costs[idx] == boundary]
    if k - len(below) == len(pool):
        return below + pool, 0
    drawn = random.Random(seed).sample(pool, k - len(below))
    return below + sorted(drawn, key=order.index), len(pool)


@settings(max_examples=60, deadline=None)
@given(
    prons=st.lists(
        st.lists(st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=3).map(tuple),
                 min_size=1, max_size=2),
        min_size=1, max_size=25,
    ),
    labels=st.lists(st.sampled_from("abcde"), min_size=25, max_size=25),
    k=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_top_k_matches_a_full_sort(prons, labels, k, seed):
    # Three phones and short words: many exact ties, duplicate labels.
    wake = WakeWordSpec(id="T", text="wake", phones=("AA", "B", "IY"))
    vocab = [Candidate(label, tuple(p)) for label, p in zip(labels, prons)]
    ranked = rank_candidates(vocab, wake, UNWEIGHTED, k=k, seed=seed)
    order, pool_size = full_sort_top_k(vocab, wake, UNWEIGHTED, k, seed)
    assert [id(i.candidate) for i in ranked.items] == [id(vocab[idx]) for idx in order]
    assert ranked.boundary_pool_size == pool_size


@settings(max_examples=100, deadline=None)
@given(
    wake=st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=4).map(tuple),
    prons=st.lists(
        st.lists(st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=4).map(tuple),
                 min_size=1, max_size=4),
        min_size=1, max_size=12,
    ),
    k=st.integers(1, 12),
    seed=st.integers(0, 1000),
    model_seed=st.integers(0, 2**32 - 1),
)
# Deleting AA or deleting B: two variants at one cost, by different scripts.
@example(wake=("AA", "B"), prons=[[("AA",), ("B",)]], k=1, seed=0, model_seed=0)
def test_each_item_aligns_the_variant_distance_to_wakeword_picks(wake, prons, k, seed,
                                                                 model_seed):
    # Three phones and up to four variants: variants often tie on cost.
    spec = WakeWordSpec(id="T", text="wake", phones=wake)
    vocab = [Candidate(f"c{idx}", tuple(p)) for idx, p in enumerate(prons)]
    for model in random_models(random.Random(model_seed), ALPHABET[:3]):
        for item in rank_candidates(vocab, spec, model, k, seed).items:
            assert item.breakdown == distance_to_wakeword(spec, item.candidate.prons, model)
            assert item.distance == item.breakdown.L


TIE_WAKES = [("AA", "B", "IY"), ("B",), ("IY", "IY", "AA", "B")]


@settings(max_examples=40, deadline=None)
@given(
    prons=st.lists(
        st.lists(st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=3).map(tuple),
                 min_size=1, max_size=2),
        min_size=1, max_size=25,
    ),
    labels=st.lists(st.sampled_from(["a", "B", " a", "c  d", "e"]), min_size=25, max_size=25),
    runs=st.lists(
        st.tuples(st.integers(0, len(TIE_WAKES) - 1), st.integers(0, 2), st.integers(1, 12),
                  st.integers(0, 1000), st.sets(st.sampled_from(["a", "c d", "E", "zz"]))),
        min_size=1, max_size=4,
    ),
    model_seed=st.integers(0, 2**32 - 1),
)
def test_one_vocabulary_ranks_like_fresh_lists(prons, labels, runs, model_seed):
    # Tie-heavy: three phones, short words, labels that repeat or only
    # match once normalized, and blocklists that remove some of them.
    vocab = [Candidate(label, tuple(p)) for label, p in zip(labels, prons)]
    shared = Vocabulary(vocab)
    models = random_models(random.Random(model_seed), ALPHABET[:3])
    for wake_idx, model_idx, k, seed, blocklist in runs:
        wake = WakeWordSpec(id="T", text="B", phones=TIE_WAKES[wake_idx])
        model = models[model_idx]
        try:
            fresh = rank_candidates(list(vocab), wake, model, k, seed, blocklist)
        except EmptyVocabulary:
            with pytest.raises(EmptyVocabulary):
                rank_candidates(shared, wake, model, k, seed, blocklist)
            continue
        reused = rank_candidates(shared, wake, model, k, seed, blocklist)
        assert reused == fresh
        assert [id(i.candidate) for i in reused.items] == [id(i.candidate) for i in fresh.items]


class TestVocabulary:
    def test_a_sequence_of_the_candidates(self):
        vocab = tie_vocab()
        shared = Vocabulary(vocab)
        assert len(shared) == len(vocab)
        assert list(shared) == vocab and shared[1] is vocab[1]
        assert list(shared[1:3]) == vocab[1:3]
        assert Vocabulary.of(shared) is shared
        assert list(Vocabulary.of(vocab)) == vocab

    def test_encoding_and_labels_built_once(self):
        shared = Vocabulary(
            [Candidate("A  Lesson", (("AH", "L"),)), Candidate("echo", (("EH",),))]
        )
        assert shared.normalized_labels == ("a lesson", "echo")
        assert shared.normalized_labels[1] is shared[1].label  # not copied
        assert shared.codes is shared.codes
        assert shared.normalized_labels is shared.normalized_labels

    def test_unknown_phrase_word_names_the_word_and_the_phrase(self, mini_dictionary):
        with pytest.raises(OutOfVocabulary, match="'xylophone' in phrase 'a xylophone'"):
            Vocabulary.from_dictionary(mini_dictionary, ["lexus", "A  Xylophone"])


class TestExtractNgrams:
    def test_sliding_window(self, mini_dictionary):
        out = extract_ngrams(["fresh parmesan cheese"], 2, mini_dictionary)
        assert {c.label for c in out} == {"fresh parmesan", "parmesan cheese"}
        assert all(c.source == "2-gram" for c in out)

    def test_line_too_short(self, mini_dictionary):
        assert list(extract_ngrams(["my cereal"], 3, mini_dictionary)) == []

    def test_window_count_per_line(self, mini_dictionary):
        # Six tokens, n=3: four windows before dedup.
        out = extract_ngrams(["the echo sat by the road"], 3, mini_dictionary)
        assert sum(c.count for c in out) == 4

    def test_windows_never_cross_lines(self, mini_dictionary):
        out = extract_ngrams(["fresh parmesan", "my cereal"], 2, mini_dictionary)
        labels = {c.label for c in out}
        assert labels == {"fresh parmesan", "my cereal"}

    def test_duplicates_merged_with_counts(self, mini_dictionary):
        out = extract_ngrams(["the echo", "the echo please"], 2, mini_dictionary)
        by_label = {c.label: c for c in out}
        assert by_label["the echo"].count == 2
        assert by_label["echo please"].count == 1

    def test_case_and_punctuation_normalized(self, mini_dictionary):
        out = extract_ngrams(["Fresh, PARMESAN!"], 2, mini_dictionary)
        assert [c.label for c in out] == ["fresh parmesan"]

    def test_pronunciations_cover_variant_products(self, mini_dictionary):
        out = extract_ngrams(["the echo"], 2, mini_dictionary)
        the_echo = next(c for c in out if c.label == "the echo")
        assert len(the_echo.prons) == 2  # THE has two variants

    def test_oov_ngrams_dropped_with_diagnostic(self, mini_dictionary, caplog):
        with caplog.at_level(logging.WARNING, logger="triggercraft.candidates"):
            out = extract_ngrams(["the zyzzyva sat"], 1, mini_dictionary)
        assert {c.label for c in out} == {"the", "sat"}
        assert any("out-of-vocabulary" in r.message for r in caplog.records)

    def test_empty_input(self, mini_dictionary):
        assert list(extract_ngrams([], 2, mini_dictionary)) == []

    @pytest.mark.parametrize("n", [0, 4, True])
    def test_n_out_of_range(self, n, mini_dictionary):
        with pytest.raises(ValueError):
            extract_ngrams(["the echo"], n, mini_dictionary)


class TestExportManifest:
    def _ranked(self, labels):
        vocab = [
            Candidate(label=label, prons=(("B", "AA"),), source="dictionary")
            for label in labels
        ]
        wake = WakeWordSpec(id="W", text="unrelated", phones=("K", "IY"))
        return rank_candidates(vocab, wake, UNWEIGHTED, k=len(labels), seed=0)

    def test_rank_major_voice_minor_order(self):
        rows = export_manifest(self._ranked(["alpha", "beta"]))
        assert len(rows) == 20
        assert [label for label, *_ in rows[:10]] == ["alpha"] * 10
        assert [voice_id for _, voice_id, *_ in rows[:4]] == [
            "standard-a", "standard-b", "standard-c", "standard-d",
        ]

    def test_file_name_pattern(self):
        rows = export_manifest(self._ranked(["a lesson"]))
        assert rows[0][-1] == "1_a_lesson_standard-a.wav"
        assert rows[-1][-1] == "1_a_lesson_wavenet-f.wav"

    def test_slug_collisions_suffixed(self, caplog):
        with caplog.at_level(logging.WARNING, logger="triggercraft.candidates"):
            rows = export_manifest(self._ranked(["a lesson", "a-lesson"]))
        names = {file_name for *_, file_name in rows}
        assert len(names) == 20
        assert any("_2_" in name for name in names)
        assert any("collision" in r.message for r in caplog.records)

    def test_empty_ranked_list(self, wake_by_id):
        ranked = rank_candidates(
            [Candidate(label="x", prons=(("B",),))],
            wake_by_id["VA4"],
            UNWEIGHTED,
            k=1,
            seed=0,
        )
        ranked.items = []
        assert export_manifest(ranked) == []

    def test_default_voice_pool_is_valid(self):
        assert len(DEFAULT_VOICES) == 10
        export_manifest(self._ranked(["alpha"]), DEFAULT_VOICES)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda v: v[:9],  # too few
            lambda v: list(v[:4]) + [Voice("s-x", "standard", "f")] + list(v[5:]),  # 5 standard
            lambda v: [Voice("standard-a", "standard", "f")] * 2 + list(v[2:]),  # dup ids
            lambda v: [Voice("standard-a", "standard", "f"),
                       Voice("standard-b", "standard", "f"),
                       Voice("standard-c", "standard", "f"),
                       Voice("standard-d", "standard", "m")] + list(v[4:]),  # gender skew
        ],
    )
    def test_bad_voice_pools_rejected(self, mutate):
        voices = mutate(list(DEFAULT_VOICES))
        with pytest.raises(ConfigError):
            export_manifest(self._ranked(["alpha"]), voices)
