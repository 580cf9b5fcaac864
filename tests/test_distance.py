"""Edit-distance scoring: frozen examples, oracle equivalence, invariants."""

import dataclasses
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ALPHABET,
    oracle_cost,
    oracle_costs,
    random_models,
    random_phones,
    random_weight_table,
    reference_align,
    reference_distance,
)
from triggercraft.candidates import Candidate, Vocabulary, rank_candidates
from triggercraft.distance import (
    CostContext,
    CostModel,
    PhoneCodes,
    ScaleFactors,
    UNIT_SCALES,
    WeightTable,
    align,
    distance_to_wakeword,
)
from triggercraft.errors import EmptyWakeWord, FormatError, NoPronunciation
from triggercraft.lexicon import WakeWordSpec

ECHO = ("EH", "K", "OW")
GECKO = ("G", "EH", "K", "OW")
ALEXA = ("AH", "L", "EH", "K", "S", "AH")
A_LESSON = ("AH", "L", "EH", "S", "AH", "N")


def replay(wake, alignment):
    """Apply an edit script to the wake phones; returns the rewritten side."""
    out = []
    consumed = []
    for step in alignment:
        kind = step[0]
        if kind == "match":
            out.append(step[1])
            consumed.append(step[1])
        elif kind == "substitute":
            out.append(step[2])
            consumed.append(step[1])
        elif kind == "delete":
            consumed.append(step[1])
        elif kind == "insert":
            out.append(step[1])
        else:  # pragma: no cover - malformed script
            raise AssertionError(f"unknown step {step!r}")
    assert tuple(consumed) == tuple(wake)
    return tuple(out)


class TestFrozenExamples:
    def test_near_homophone_needs_one_insert(self):
        bd = align(ECHO, GECKO, CostModel.unweighted())
        assert bd.L == 1 / 3
        assert (bd.S_n, bd.D_n, bd.I_n) == (0, 0, 1)
        assert (bd.S, bd.D, bd.I) == (0.0, 0.0, 1.0)
        assert bd.N == 3
        assert bd.alignment == [
            ("insert", "G"),
            ("match", "EH"),
            ("match", "K"),
            ("match", "OW"),
        ]

    def test_phrase_confusion_unweighted(self):
        bd = align(ALEXA, A_LESSON, CostModel.unweighted())
        assert bd.L == 2 / 6
        assert (bd.S_n, bd.D_n, bd.I_n) == (0, 1, 1)

    def test_phrase_confusion_simple_scales(self):
        model = CostModel.simple(ScaleFactors(s=1.46, d=1.30, i=0.24))
        bd = align(ALEXA, A_LESSON, model)
        assert bd.L == (1.30 + 0.24) / 6
        assert abs(bd.L - 0.256_666_666_666_666_66) < 1e-9
        assert (bd.S_n, bd.D_n, bd.I_n) == (0, 1, 1)

    def test_identical_sequences_cost_nothing(self):
        for model in random_models(random.Random(7)):
            bd = align(ALEXA, ALEXA, model)
            assert bd.L == 0.0
            assert bd.alignment == [("match", p) for p in ALEXA]


class TestOracleEquivalence:
    def test_random_pairs_bit_exact(self):
        rng = random.Random(20250818)
        for _ in range(250):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 0, 6)
            models = random_models(rng)
            expected = oracle_costs(wake, cand, models)
            for model, raw in zip(models, expected):
                assert CostContext(wake, model).cost(cand) == raw
                assert align(wake, cand, model).L == raw / len(wake)

    def test_empty_candidate_is_all_deletions(self):
        rng = random.Random(3)
        wake = ("B", "AA", "T")
        for model in random_models(rng):
            bd = align(wake, (), model)
            assert bd.alignment == [("delete", p) for p in wake]
            assert bd.L == oracle_cost(wake, (), model) / 3


class TestAlignmentProperties:
    def test_replay_reconstructs_candidate(self):
        rng = random.Random(11)
        for _ in range(100):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 0, 6)
            for model in random_models(rng):
                bd = align(wake, cand, model)
                assert replay(wake, bd.alignment) == cand

    def test_counts_match_alignment(self):
        rng = random.Random(12)
        for _ in range(60):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 1, 6)
            for model in random_models(rng):
                bd = align(wake, cand, model)
                kinds = [step[0] for step in bd.alignment]
                assert bd.S_n == kinds.count("substitute")
                assert bd.D_n == kinds.count("delete")
                assert bd.I_n == kinds.count("insert")

    def test_score_decomposes_into_weighted_masses(self):
        rng = random.Random(13)
        for _ in range(60):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 1, 6)
            for model in random_models(rng):
                bd = align(wake, cand, model)
                sc = model.scales
                total = (sc.s * bd.S + sc.d * bd.D + sc.i * bd.I) / bd.N
                assert math.isclose(bd.L, total, rel_tol=1e-12, abs_tol=1e-12)

    def test_unweighted_masses_equal_counts(self):
        bd = align(ALEXA, A_LESSON, CostModel.unweighted())
        assert (bd.S, bd.D, bd.I) == (bd.S_n, bd.D_n, bd.I_n)

    def test_deterministic_across_calls(self):
        rng = random.Random(14)
        for _ in range(20):
            wake = random_phones(rng, 2, 5)
            cand = random_phones(rng, 2, 6)
            model = random_models(rng)[2]
            first = align(wake, cand, model)
            second = align(wake, cand, model)
            assert first.alignment == second.alignment
            assert first.L == second.L


class TestTieBreaks:
    def test_match_beats_insert(self):
        # Both scripts cost one insertion; the match must absorb the final
        # phone, pushing the insert to the front.
        bd = align(("AA",), ("AA", "AA"), CostModel.unweighted())
        assert bd.alignment == [("insert", "AA"), ("match", "AA")]

    def test_substitute_beats_delete_insert_pair(self):
        # s=2 makes the substitution cost exactly equal the delete+insert
        # detour; the tie must resolve to the single substitution.
        bd = align(("AA",), ("B",), CostModel.simple(ScaleFactors(s=2.0)))
        assert bd.L == 2.0
        assert bd.alignment == [("substitute", "AA", "B")]

    def test_cheaper_detour_wins_over_substitute(self):
        # The delete wins the tie at the final DP cell, so it is the last
        # step of the script and the insert comes first in forward order.
        bd = align(("AA",), ("B",), CostModel.simple(ScaleFactors(s=3.0)))
        assert bd.L == 2.0
        assert bd.alignment == [("insert", "B"), ("delete", "AA")]


class TestScaleLaws:
    def test_raising_any_scale_never_lowers_the_score(self):
        rng = random.Random(15)
        for _ in range(80):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 0, 6)
            base = ScaleFactors(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
            bumped = ScaleFactors(
                base.s + rng.uniform(0, 1) * rng.choice([0, 1]),
                base.d + rng.uniform(0, 1) * rng.choice([0, 1]),
                base.i + rng.uniform(0, 1),
            )
            lo = align(wake, cand, CostModel.simple(base)).L
            hi = align(wake, cand, CostModel.simple(bumped)).L
            assert lo <= hi

    def test_advanced_with_unit_weights_equals_simple(self):
        rng = random.Random(16)
        ones = WeightTable(
            deletion={p: 1.0 for p in ALPHABET},
            insertion={p: 1.0 for p in ALPHABET},
            substitution={(p, q): 1.0 for p in ALPHABET for q in ALPHABET if p != q},
            row_phones=frozenset(ALPHABET),
        )
        for _ in range(40):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 0, 6)
            scales = ScaleFactors(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
            simple = align(wake, cand, CostModel.simple(scales))
            advanced = align(wake, cand, CostModel.advanced(scales, ones))
            assert advanced.L == simple.L
            assert advanced.alignment == simple.alignment


class TestCostContext:
    def test_fast_path_matches_align(self):
        rng = random.Random(17)
        wake = random_phones(rng, 3, 5)
        for model in random_models(rng):
            ctx = CostContext(wake, model)
            for _ in range(30):
                cand = random_phones(rng, 0, 6)
                assert ctx.cost(cand) == oracle_cost(wake, cand, model)

    def test_best_cost_is_min_over_variants(self):
        rng = random.Random(18)
        wake = ("B", "AA", "K")
        model = random_models(rng)[2]
        prons = [random_phones(rng, 1, 5) for _ in range(4)]
        ctx = CostContext(wake, model)
        assert ctx.best_cost(prons) == min(ctx.cost(p) for p in prons)

    def test_best_cost_requires_pronunciations(self):
        ctx = CostContext(("AA",), CostModel.unweighted())
        with pytest.raises(NoPronunciation):
            ctx.best_cost([])

    def test_empty_wake_word_rejected(self):
        with pytest.raises(EmptyWakeWord):
            CostContext((), CostModel.unweighted())

    def test_missing_table_entries_fall_back_and_warn_once(self, caplog):
        table = WeightTable(
            deletion={"AA": 0.5},
            insertion={"AA": 0.5},
            substitution={("AA", "B"): 0.5},
            row_phones=frozenset({"AA"}),
        )
        model = CostModel.advanced(ScaleFactors(1.0, 1.0, 1.0), table)
        ctx = CostContext(("AA",), model)
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            first = ctx.cost(("K",))
            second = ctx.cost(("K",))
        assert first == second == 1.0  # substitution fell back to weight 1
        relevant = [r for r in caplog.records if "falling back" in r.message]
        # One warning for the missing substitution pair, one for the missing
        # insertion weight -- and none repeated on the second call.
        assert len(relevant) == 2


def phone_seqs(lo, hi):
    return st.lists(st.sampled_from(ALPHABET), min_size=lo, max_size=hi).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    wake=phone_seqs(1, 4),
    candidates=st.lists(
        st.lists(phone_seqs(0, 5), min_size=1, max_size=4), min_size=1, max_size=6
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_costs_match_the_oracle(wake, candidates, seed):
    # Variants of mixed lengths, the empty pronunciation included, so one
    # call spans several length groups; every model variant, bit for bit.
    models = random_models(random.Random(seed))
    per_pron = {p: oracle_costs(wake, p, models) for prons in candidates for p in prons}
    for index, model in enumerate(models):
        expected = [min(per_pron[p][index] for p in prons) for prons in candidates]
        assert CostContext(wake, model).best_costs(candidates).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    wake=phone_seqs(1, 4),
    candidates=st.lists(
        st.lists(phone_seqs(0, 5), min_size=1, max_size=4), min_size=1, max_size=6
    ),
    keep=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_masked_score_equals_best_costs_of_the_kept(wake, candidates, keep, seed):
    # One encoding, scored by every model: kept candidates cost what a
    # fresh batch of only them costs, bit for bit; the rest are inf.
    keep = np.array(keep[: len(candidates)])
    codes = PhoneCodes(candidates)
    kept = [prons for prons, flag in zip(candidates, keep) if flag]
    for model in random_models(random.Random(seed)):
        scored = CostContext(wake, model).score(codes, keep)
        expected = CostContext(wake, model).best_costs(kept).tolist() if kept else []
        assert scored[keep].tolist() == expected
        assert np.isinf(scored[~keep]).all()


class TestBulkWarnings:
    WAKE = WakeWordSpec(id="W", text="wake", phones=("B", "AA", "K"))

    @staticmethod
    def model_without(kind, phone):
        table = random_weight_table(random.Random(5))
        mapping = getattr(table, kind)
        del mapping[phone]
        return CostModel.advanced(ScaleFactors(1.0, 1.0, 1.0), table)

    @staticmethod
    def fallbacks(caplog):
        return [r.getMessage() for r in caplog.records if "falling back" in r.getMessage()]

    def test_phone_in_no_candidate_is_never_looked_up(self, caplog):
        model = self.model_without("insertion", "T")
        vocab = [Candidate(f"c{i}", (("B", "IY") * (i % 3 + 1),)) for i in range(8)]
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            CostContext(self.WAKE.phones, model).best_costs([c.prons for c in vocab])
            rank_candidates(vocab, self.WAKE, model, k=3, seed=0)
        assert self.fallbacks(caplog) == []

    def test_phone_only_in_blocked_candidates_is_never_looked_up(self, caplog):
        model = self.model_without("insertion", "T")
        vocab = Vocabulary(
            [Candidate(f"c{i}", (("B", "IY") * (i % 3 + 1),)) for i in range(8)]
            + [Candidate("Bat", (("B", "AA", "T"),))]
        )
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            rank_candidates(vocab, self.WAKE, model, k=3, seed=0, blocklist={"bat"})
            assert self.fallbacks(caplog) == []
            # Kept, the same candidate's phone is looked up (and falls back).
            rank_candidates(vocab, self.WAKE, model, k=3, seed=0)
        assert self.fallbacks(caplog) == ["no insertion weight for 'T'; falling back to 1.0"]

    def test_missing_weight_warned_once_per_table(self, caplog):
        model = self.model_without("insertion", "S")
        vocab = [Candidate(f"c{i}", (("B", "AA", "K") + ("S",) * (i % 4 + 1),)) for i in range(8)]
        expected = ["no insertion weight for 'S'; falling back to 1.0"]
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            rank_candidates(vocab, self.WAKE, model, k=3, seed=0)
            assert self.fallbacks(caplog) == expected
            rank_candidates(vocab, self.WAKE, model, k=3, seed=0)
            assert self.fallbacks(caplog) == expected
            # A copy of the table is a new table, and warns again.
            copy = dataclasses.replace(model, table=dataclasses.replace(model.table))
            rank_candidates(vocab, self.WAKE, copy, k=3, seed=0)
        assert self.fallbacks(caplog) == expected * 2


class TestDistanceToWakeword:
    def test_picks_best_variant(self, wake_by_id, mini_dictionary):
        wake = wake_by_id["VA3"]  # phones EH K OW
        prons = [p.phones for p in mini_dictionary.lookup("gecko")]
        bd = distance_to_wakeword(wake, prons, CostModel.unweighted())
        assert bd.L == 1 / 3

    def test_tie_keeps_lowest_variant_index(self, wake_by_id):
        wake = wake_by_id["VA3"]  # EH K OW
        tied = [("EH", "K", "UW"), ("EH", "K", "IY")]  # both one substitution
        bd = distance_to_wakeword(wake, tied, CostModel.unweighted())
        assert bd.L == 1 / 3
        assert ("substitute", "OW", "UW") in bd.alignment

    def test_strictly_better_later_variant_wins(self, wake_by_id):
        wake = wake_by_id["VA3"]
        prons = [("EH", "K", "UW"), ("EH", "K", "OW")]
        bd = distance_to_wakeword(wake, prons, CostModel.unweighted())
        assert bd.L == 0.0

    def test_no_pronunciations(self, wake_by_id):
        with pytest.raises(NoPronunciation):
            distance_to_wakeword(wake_by_id["VA3"], [], CostModel.unweighted())


@st.composite
def alignment_cases(draw):
    # A 3-phone alphabet makes ties, and so the tie-break order, common.
    phone = st.sampled_from(draw(st.sampled_from([ALPHABET[:3], ALPHABET])))
    wake = tuple(draw(st.lists(phone, min_size=1, max_size=5)))
    prons = draw(st.lists(st.lists(phone, max_size=6).map(tuple), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    unweighted, simple, advanced = random_models(rng)
    # Exact factors make different scripts tie exactly, and 1e308 overflows
    # sums to inf: the cases a backtrack read from the costs must get right.
    factor = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e308])
    exact = draw(st.dictionaries(st.sampled_from("sdi"), factor))
    scales = dataclasses.replace(simple.scales, **exact)
    # Missing entries fall back to weight 1, in the score and in the masses.
    drop = draw(st.sampled_from([0.0, 0.3, 1.0]))
    table = WeightTable(*(
        {key: w for key, w in getattr(advanced.table, kind).items() if rng.random() >= drop}
        for kind in ("deletion", "insertion", "substitution")
    ))
    models = [unweighted, CostModel.simple(scales), CostModel.advanced(scales, table)]
    return wake, prons, models


@settings(max_examples=300, deadline=None)
@given(alignment_cases())
def test_alignment_equals_the_scalar_reference(case):
    wake, prons, models = case
    spec = WakeWordSpec(id="W", text="wake", phones=wake)
    for model in models:
        for pron in prons:
            assert align(wake, pron, model) == reference_align(wake, pron, model)
        assert distance_to_wakeword(spec, prons, model) == reference_distance(wake, prons, model)


class TestModelValidation:
    def test_unweighted_rejects_scales(self):
        with pytest.raises(ValueError):
            CostModel("unweighted", ScaleFactors(2.0, 1.0, 1.0))

    def test_unweighted_rejects_table(self):
        table = random_weight_table(random.Random(1))
        with pytest.raises(ValueError):
            CostModel("unweighted", UNIT_SCALES, table)

    def test_simple_rejects_table(self):
        table = random_weight_table(random.Random(2))
        with pytest.raises(ValueError):
            CostModel("simple", UNIT_SCALES, table)

    def test_advanced_requires_table(self):
        with pytest.raises(ValueError):
            CostModel("advanced", UNIT_SCALES, None)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            CostModel("fancy")

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_scale_factors_must_be_finite_nonnegative(self, bad):
        with pytest.raises(ValueError):
            ScaleFactors(s=bad)

    @pytest.mark.parametrize("section", ["deletion", "insertion", "substitution"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_advanced_rejects_weights_it_cannot_price(self, section, bad):
        # Built, such a model made align raise IndexError (inf) and rank
        # draw its tie from NaN costs.
        weights = {"deletion": {"AA": 1.0}, "insertion": {"B": 1.0},
                   "substitution": {("AA", "B"): 1.0}}
        key = next(iter(weights[section]))
        weights[section][key] = bad
        with pytest.raises(ValueError, match=f"{section} weight"):
            CostModel.advanced(ScaleFactors(1, 0, 1), WeightTable(**weights))


class TestWeightTableValidation:
    def test_fixture_table_is_valid(self, weight_table):
        weight_table.validate()

    def test_mean_off_by_more_than_tolerance(self):
        table = WeightTable(
            deletion={"AA": 1.5, "B": 1.5},
            insertion={"AA": 1.0},
            substitution={("AA", "B"): 1.0},
        )
        with pytest.raises(FormatError):
            table.validate()

    def test_diagonal_entry_rejected(self):
        table = WeightTable(
            deletion={"AA": 1.0},
            insertion={"AA": 1.0},
            substitution={("AA", "AA"): 1.0},
        )
        with pytest.raises(FormatError):
            table.validate()

    def test_negative_weight_rejected(self):
        table = WeightTable(
            deletion={"AA": -1.0, "B": 3.0},
            insertion={"AA": 1.0},
            substitution={("AA", "B"): 1.0},
        )
        with pytest.raises(FormatError):
            table.validate()

    def test_empty_section_rejected(self):
        table = WeightTable(deletion={}, insertion={"AA": 1.0}, substitution={})
        with pytest.raises(FormatError):
            table.validate()

    def test_per_row_normalization_checked_independently(self):
        table = WeightTable(
            deletion={"AA": 1.0},
            insertion={"AA": 1.0},
            substitution={("AA", "B"): 0.5, ("AA", "K"): 1.5, ("B", "K"): 2.0},
        )
        with pytest.raises(FormatError) as err:
            table.validate()
        assert "'B'" in str(err.value)
