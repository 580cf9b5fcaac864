"""Scale-factor grid search, trigger filtering, and cross-validation."""

import dataclasses
import io
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    best_achievable_rank,
    oracle_costs,
    rank_of,
    reference_grid_costs,
    reference_rank_vectors,
)
from triggercraft import tuning
from triggercraft.candidates import (
    Candidate,
    build_blocklist,
    dictionary_candidates,
    normalize_label,
    rank_candidates,
)
from triggercraft.distance import CostContext, CostModel, PhoneCodes, ScaleFactors, WeightTable
from triggercraft.errors import (
    NoTriggers,
    ParseError,
    TooFewFolds,
    UnknownLabel,
    UnknownWakeWord,
)
from triggercraft.lexicon import WakeWordSpec
from triggercraft.tuning import (
    MAX_GRID_POINTS,
    Grid,
    LabeledTrigger,
    TriggerRanks,
    cross_validate,
    filter_triggers,
    format_tuning_report,
    grid_search,
    load_trigger_labels,
)

UNWEIGHTED = CostModel.unweighted()


def cand(label, *prons):
    return Candidate(label=label, prons=tuple(prons))


class TestLoadTriggerLabels:
    HEADER = "wake_id\ttrigger_label\ttimes_triggered\n"

    def test_rows_parsed_and_normalized(self):
        text = self.HEADER + "VA1\t  A   Lesson \t3\nVA2\tcommuter\t\n"
        out = load_trigger_labels(io.StringIO(text))
        assert out == [
            LabeledTrigger("VA1", "a lesson", 3),
            LabeledTrigger("VA2", "commuter", None),
        ]

    def test_two_field_rows_allowed(self):
        out = load_trigger_labels(io.StringIO(self.HEADER + "VA1\tlexus\n"))
        assert out == [LabeledTrigger("VA1", "lexus", None)]

    def test_fixture_file(self, fixtures_dir):
        with open(fixtures_dir / "triggers.tsv") as fh:
            out = load_trigger_labels(fh)
        assert len(out) == 4
        assert {t.wake_id for t in out} == {"VA1", "VA2", "VA3"}

    def test_header_required(self):
        with pytest.raises(ParseError) as err:
            load_trigger_labels(io.StringIO("VA1\tlexus\t3\n"))
        assert err.value.line == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_trigger_labels(io.StringIO(""))

    def test_bad_count(self):
        with pytest.raises(ParseError) as err:
            load_trigger_labels(io.StringIO(self.HEADER + "VA1\tlexus\toften\n"))
        assert err.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            load_trigger_labels(io.StringIO(self.HEADER + "VA1\n"))

    @pytest.mark.parametrize("count", ["-3", "+2", "1_000", "\u0663", "3.0", "0x1", "3 4"])
    def test_count_is_ascii_digits_only(self, count):
        with pytest.raises(ParseError) as err:
            load_trigger_labels(io.StringIO(self.HEADER + f"VA1\tlexus\t1\nVA1\tx\t{count}\n"))
        assert err.value.line == 3

    def test_count_digits_around_whitespace(self):
        out = load_trigger_labels(io.StringIO(self.HEADER + "VA1\tlexus\t 007 \n"))
        assert out == [LabeledTrigger("VA1", "lexus", 7)]

    @pytest.mark.parametrize("label", [" ", "", " \x0b "], ids=["blank", "empty", "whitespace"])
    def test_empty_label_names_its_line(self, label):
        with pytest.raises(ParseError, match="empty trigger label") as err:
            load_trigger_labels(io.StringIO(self.HEADER + f"VA1\tlexus\t1\nVA1\t{label}\t3\n"))
        assert err.value.line == 3


@pytest.mark.parametrize("label", ["", " ", "\t\n"])
def test_labeled_trigger_rejects_an_empty_label(label):
    with pytest.raises(ValueError, match="empty trigger label"):
        LabeledTrigger("VA1", label)


class TestGrid:
    def test_default_grid_size(self):
        grid = Grid.default()
        assert grid.axis_values() == [round(k * 0.05, 12) for k in range(21)]
        assert grid.point_count() == 21**3 == 9261

    def test_extended_grid_size(self):
        grid = Grid.extended()
        assert grid.axis_values()[-1] == 1.5
        assert grid.point_count() == 31**3 == 29791

    def test_uniform_endpoints_inclusive(self):
        assert Grid(0.0, 1.0, 0.25).axis_values() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_step_not_dividing_range(self):
        assert Grid(0.0, 1.0, 0.3).axis_values() == [0.0, 0.3, 0.6, 0.9]

    def test_points_lexicographic(self):
        pts = list(Grid(0.0, 0.5, 0.5).points())
        assert pts[:3] == [
            ScaleFactors(0.0, 0.0, 0.0),
            ScaleFactors(0.0, 0.0, 0.5),
            ScaleFactors(0.0, 0.5, 0.0),
        ]
        assert len(pts) == 8

    @pytest.mark.parametrize("grid", [Grid(step=0.0), Grid(lo=2.0)])
    def test_bad_axes_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.axis_values()

    def test_cap_checked_on_the_point_count(self):
        # 101 values per axis is fine on one axis, but 101**3 points is not.
        assert Grid(0.0, 1.0, 0.01).axis_count() == 101
        with pytest.raises(ValueError, match=f"cap of {MAX_GRID_POINTS}"):
            Grid(0.0, 1.0, 0.01).point_count()
        assert Grid.extended().point_count() < MAX_GRID_POINTS


class TestRankOf:
    WAKE = WakeWordSpec(id="W", text="unused", phones=("B", "AA", "K"))

    def vocab(self):
        return [
            cand("exact", ("B", "AA", "K")),
            cand("near", ("B", "AA", "T")),
            cand("near2", ("B", "AA", "S")),
            cand("far", ("T", "IY", "S")),
        ]

    def test_unique_minimum_is_rank_one(self):
        assert rank_of("exact", self.vocab(), self.WAKE, UNWEIGHTED) == 1

    def test_competition_ranking_shares_minimal_rank(self):
        assert rank_of("near", self.vocab(), self.WAKE, UNWEIGHTED) == 2
        assert rank_of("near2", self.vocab(), self.WAKE, UNWEIGHTED) == 2
        assert rank_of("far", self.vocab(), self.WAKE, UNWEIGHTED) == 4

    def test_all_tied_at_minimum(self):
        tied = [cand("a", ("B", "AA", "T")), cand("b", ("B", "AA", "S")), cand("c", ("B", "AA", "M"))]
        for label in ("a", "b", "c"):
            assert rank_of(label, tied, self.WAKE, UNWEIGHTED) == 1

    def test_three_value_chain(self):
        vocab = [cand("a", ("B", "AA", "K")), cand("b", ("B", "AA", "T")), cand("c", ("B", "T", "T"))]
        assert rank_of("c", vocab, self.WAKE, UNWEIGHTED) == 3

    def test_label_lookup_normalized(self):
        assert rank_of("  EXACT ", self.vocab(), self.WAKE, UNWEIGHTED) == 1

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            rank_of("absent", self.vocab(), self.WAKE, UNWEIGHTED)

    def test_invariant_under_positive_rescaling(self):
        # Doubling every per-operation cost preserves all comparisons
        # exactly (power-of-two scaling is lossless in binary floats).
        base = ScaleFactors(0.75, 0.5, 0.25)
        doubled = ScaleFactors(1.5, 1.0, 0.5)
        for label in ("exact", "near", "near2", "far"):
            assert rank_of(label, self.vocab(), self.WAKE, CostModel.simple(base)) == rank_of(
                label, self.vocab(), self.WAKE, CostModel.simple(doubled)
            )


def brute_force_search(triggers, vocab, wakes, grid, variant="simple", table=None, blocklists=None):
    """Reference grid search: plain loops over points and rank_of calls."""
    blocklists = blocklists or {}
    wake_map = {w.id: w for w in wakes}
    by_wake: dict[str, list[str]] = {}
    for t in triggers:
        by_wake.setdefault(t.wake_id, []).append(normalize_label(t.trigger_label))
    kept_vocab = {}
    for wake_id in by_wake:
        wake = wake_map[wake_id]
        blocked = {normalize_label(wake.text)}
        blocked.update(normalize_label(b) for b in wake.explicit_blocklist)
        blocked.update(normalize_label(b) for b in blocklists.get(wake_id, ()))
        kept_vocab[wake_id] = [c for c in vocab if normalize_label(c.label) not in blocked]

    best_point, best_objective, best_per_wake = None, None, None
    evaluated = 0
    for point in grid.points():
        evaluated += 1
        model = (
            CostModel.advanced(point, table)
            if variant == "advanced"
            else CostModel.simple(point)
        )
        per_wake = {
            wake_id: max(
                rank_of(lbl, kept_vocab[wake_id], wake_map[wake_id], model)
                for lbl in labels
            )
            for wake_id, labels in by_wake.items()
        }
        objective = sum(per_wake.values())
        if best_objective is None or objective < best_objective:
            best_point, best_objective, best_per_wake = point, objective, per_wake
    return best_point, best_objective, best_per_wake, evaluated


class TestGridSearch:
    @pytest.fixture()
    def setup(self, mini_dictionary, wake_by_id):
        vocab = dictionary_candidates(mini_dictionary)
        wakes = [wake_by_id["VA1"], wake_by_id["VA3"]]
        triggers = [
            LabeledTrigger("VA1", "lexus"),
            LabeledTrigger("VA1", "lesson"),
            LabeledTrigger("VA3", "gecko"),
        ]
        blocklists = {w.id: build_blocklist(w, mini_dictionary) for w in wakes}
        return vocab, wakes, triggers, blocklists

    def test_matches_brute_force_simple(self, setup):
        vocab, wakes, triggers, blocklists = setup
        grid = Grid(0.0, 1.0, 0.5)
        result = grid_search(triggers, vocab, wakes, grid, blocklists=blocklists)
        point, objective, per_wake, evaluated = brute_force_search(
            triggers, vocab, wakes, grid, blocklists=blocklists
        )
        assert result.best == point
        assert result.objective == objective
        assert result.per_wake_worst_rank == per_wake
        assert result.grid_points_evaluated == evaluated == 27

    def test_matches_brute_force_advanced(self, setup, weight_table):
        vocab, wakes, triggers, blocklists = setup
        grid = Grid(0.25, 0.75, 0.25)
        result = grid_search(
            triggers, vocab, wakes, grid, variant="advanced",
            table=weight_table, blocklists=blocklists,
        )
        point, objective, per_wake, _ = brute_force_search(
            triggers, vocab, wakes, grid, variant="advanced",
            table=weight_table, blocklists=blocklists,
        )
        assert result.best == point
        assert result.objective == objective
        assert result.per_wake_worst_rank == per_wake

    def test_matches_brute_force_without_blocklists(self, setup):
        vocab, wakes, triggers, _ = setup
        grid = Grid(0.0, 1.0, 0.5)
        result = grid_search(triggers, vocab, wakes, grid)
        point, objective, per_wake, _ = brute_force_search(triggers, vocab, wakes, grid)
        assert result.best == point
        assert result.objective == objective
        assert result.per_wake_worst_rank == per_wake

    def test_objective_is_minimal_everywhere(self, setup):
        vocab, wakes, triggers, blocklists = setup
        grid = Grid(0.0, 1.0, 0.5)
        result = grid_search(triggers, vocab, wakes, grid, blocklists=blocklists)
        for point in grid.points():
            model = CostModel.simple(point)
            total = 0
            for wake in wakes:
                labels = [
                    normalize_label(t.trigger_label)
                    for t in triggers
                    if t.wake_id == wake.id
                ]
                kept = [
                    c for c in vocab
                    if normalize_label(c.label) not in blocklists[wake.id]
                ]
                total += max(rank_of(lbl, kept, wake, model) for lbl in labels)
            assert result.objective <= total

    def test_constant_objective_ties_to_origin(self):
        wake = WakeWordSpec(id="W", text="unrelated", phones=("B", "AA"))
        vocab = [cand("hit", ("B", "AA")), cand("miss", ("K", "IY", "T", "S"))]
        result = grid_search(
            [LabeledTrigger("W", "hit")], vocab, [wake], Grid(0.0, 1.0, 0.5)
        )
        assert result.best == ScaleFactors(0.0, 0.0, 0.0)
        assert result.objective == 1
        assert result.per_wake_worst_rank == {"W": 1}

    def test_no_triggers(self, setup):
        vocab, wakes, _, _ = setup
        with pytest.raises(NoTriggers):
            grid_search([], vocab, wakes, Grid.default())

    def test_unknown_wake_word(self, setup):
        vocab, wakes, _, _ = setup
        with pytest.raises(UnknownWakeWord):
            grid_search([LabeledTrigger("VA9", "lexus")], vocab, wakes, Grid.default())

    def test_unknown_trigger_label(self, setup):
        vocab, wakes, _, _ = setup
        with pytest.raises(UnknownLabel) as info:
            grid_search(
                [LabeledTrigger("VA1", "zyzzyva")], vocab, wakes, Grid(0, 1, 1)
            )
        assert str(info.value) == "labels not in vocabulary for 'VA1': ['zyzzyva']"

    BLOCKING = WakeWordSpec(id="W", text="wake", phones=("B", "AE", "T"),
                            explicit_blocklist=("bat",))
    BAT_CAT = [cand("bat", ("B", "AE", "T")), cand("cat", ("K", "AE", "T"))]

    def test_blocked_trigger_label_is_reported_blocked(self):
        with pytest.raises(UnknownLabel) as info:
            grid_search([LabeledTrigger("W", "bat")], self.BAT_CAT, [self.BLOCKING], Grid(0, 1, 1))
        assert str(info.value) == "labels blocked for 'W': ['bat']"

    def test_blocked_and_absent_labels_are_reported_apart(self):
        triggers = [LabeledTrigger("W", "zyzzyva"), LabeledTrigger("W", "bat")]
        with pytest.raises(UnknownLabel) as info:
            grid_search(triggers, self.BAT_CAT, [self.BLOCKING], Grid(0, 1, 1))
        assert str(info.value) == ("labels blocked for 'W': ['bat']; "
                                   "labels not in vocabulary for 'W': ['zyzzyva']")

    def test_advanced_requires_table(self, setup):
        vocab, wakes, triggers, _ = setup
        with pytest.raises(ValueError):
            grid_search(triggers, vocab, wakes, Grid.default(), variant="advanced")


class TestBestAchievableRank:
    WAKE = WakeWordSpec(id="W", text="unrelated", phones=("B", "AA"))

    def vocab(self):
        return [
            cand("exact", ("B", "AA")),
            cand("sub1", ("B", "IY")),
            cand("sub2", ("B", "UW")),
            cand("target", ("B",)),  # one deletion
        ]

    def test_minimum_over_grid(self):
        grid = Grid(0.5, 1.0, 0.5)
        trigger = LabeledTrigger("W", "target")
        got = best_achievable_rank(trigger, self.vocab(), self.WAKE, grid)
        expected = min(
            rank_of("target", self.vocab(), self.WAKE, CostModel.simple(p))
            for p in grid.points()
        )
        assert got == expected == 2

    def test_degenerate_grid_equals_rank_of(self):
        grid = Grid(1.0, 1.0, 1.0)
        assert grid.point_count() == 1
        trigger = LabeledTrigger("W", "sub1")
        got = best_achievable_rank(trigger, self.vocab(), self.WAKE, grid)
        assert got == rank_of("sub1", self.vocab(), self.WAKE, CostModel.simple(ScaleFactors(1, 1, 1)))

    def test_exact_match_is_rank_one_everywhere(self):
        trigger = LabeledTrigger("W", "exact")
        assert best_achievable_rank(trigger, self.vocab(), self.WAKE, Grid(0, 1, 0.5)) == 1


class TestFilterTriggers:
    WAKE = WakeWordSpec(id="W", text="unrelated", phones=("B", "AA"))
    GRID = Grid(0.5, 1.0, 0.5)

    def vocab(self):
        # "target" (one deletion) can reach rank 2 when deletions are cheap,
        # but never rank 1: the exact match always wins.
        return [
            cand("exact", ("B", "AA")),
            cand("sub1", ("B", "IY")),
            cand("sub2", ("B", "UW")),
            cand("target", ("B",)),
        ]

    def test_threshold_boundary(self):
        triggers = [LabeledTrigger("W", "target")]
        kept = filter_triggers(triggers, self.vocab(), [self.WAKE], self.GRID, threshold=2)
        assert kept == triggers
        dropped = filter_triggers(triggers, self.vocab(), [self.WAKE], self.GRID, threshold=1)
        assert dropped == []

    def test_order_preserved(self):
        triggers = [
            LabeledTrigger("W", "target"),
            LabeledTrigger("W", "exact"),
            LabeledTrigger("W", "sub1"),
        ]
        kept = filter_triggers(triggers, self.vocab(), [self.WAKE], self.GRID, threshold=2)
        assert kept == triggers

    def test_huge_threshold_is_identity(self):
        triggers = [LabeledTrigger("W", "target"), LabeledTrigger("W", "sub2")]
        assert (
            filter_triggers(triggers, self.vocab(), [self.WAKE], self.GRID, threshold=10**6)
            == triggers
        )

    def test_empty_in_empty_out(self):
        assert filter_triggers([], self.vocab(), [self.WAKE], self.GRID) == []

    def test_drop_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="triggercraft.tuning"):
            filter_triggers(
                [LabeledTrigger("W", "target")], self.vocab(), [self.WAKE], self.GRID,
                threshold=1,
            )
        assert any("kept 0 of 1" in r.message for r in caplog.records)


class TestUnknownVariant:
    WAKES = [
        WakeWordSpec(id="W", text="unrelated", phones=("B", "AA")),
        WakeWordSpec(id="X", text="other", phones=("K", "IY")),
    ]
    VOCAB = [cand("exact", ("B", "AA")), cand("target", ("B",)), cand("key", ("K", "IY"))]
    TRIGGER = LabeledTrigger("W", "target")
    KEY = LabeledTrigger("X", "key")
    GRID = Grid(0.5, 1.0, 0.5)

    @pytest.mark.parametrize("search", [
        lambda c, v: grid_search([c.TRIGGER], c.VOCAB, c.WAKES, c.GRID, variant=v),
        lambda c, v: filter_triggers([c.TRIGGER], c.VOCAB, c.WAKES, c.GRID, variant=v),
        lambda c, v: best_achievable_rank(c.TRIGGER, c.VOCAB, c.WAKES[0], c.GRID, variant=v),
        lambda c, v: cross_validate({"W": [c.TRIGGER], "X": [c.KEY]}, c.VOCAB, c.WAKES, c.GRID,
                                    variant=v, k=1),
    ], ids=["grid_search", "filter_triggers", "best_achievable_rank", "cross_validate"])
    def test_misspelled_variant_is_rejected(self, search):
        # A misspelled variant must not run as some other variant.
        with pytest.raises(ValueError, match="unknown model variant 'advnced'"):
            search(self, "advnced")


class TestCrossValidate:
    # Three wake words over disjoint phone sets; each wake word's two
    # nearest candidates are strictly dominant at every grid point, so the
    # top-2 lists are seed-independent and hit counts can be enumerated by
    # hand: WA planted both of its nearest, WB one, WC none.
    WAKES = [
        WakeWordSpec(id="WA", text="alpha", phones=("B", "AA", "B", "AA")),
        WakeWordSpec(id="WB", text="beta", phones=("K", "IY", "K", "IY")),
        WakeWordSpec(id="WC", text="gamma", phones=("SH", "UH", "SH")),
    ]
    GRID = Grid(0.5, 1.0, 0.5)

    def vocab(self):
        return [
            cand("bobaa", ("B", "AA", "B", "AA")),
            cand("boba", ("B", "AA", "B")),
            cand("keykey", ("K", "IY", "K", "IY")),
            cand("keyki", ("K", "IY", "K")),
            cand("shush", ("SH", "UH", "SH")),
            cand("zuzzuz", ("Z", "UH", "Z", "Z", "UH", "Z")),
        ]

    def folds(self):
        return {
            "WA": [LabeledTrigger("WA", "bobaa"), LabeledTrigger("WA", "boba")],
            "WB": [LabeledTrigger("WB", "keykey")],
            "WC": [],
        }

    @pytest.mark.parametrize("seed", [0, 99])
    @pytest.mark.parametrize("variant", ["unweighted", "simple"])
    def test_hand_enumerated_hits(self, variant, seed):
        hits = cross_validate(
            self.folds(), self.vocab(), self.WAKES, self.GRID,
            variant=variant, k=2, seed=seed,
        )
        assert hits == {"WA": 2, "WB": 1, "WC": 0}

    def test_fold_count_equals_wake_count(self):
        hits = cross_validate(self.folds(), self.vocab(), self.WAKES, self.GRID, k=2)
        assert len(hits) == 3

    def test_two_folds_minimum(self):
        with pytest.raises(TooFewFolds):
            cross_validate(
                {"WA": [LabeledTrigger("WA", "bobaa")]},
                self.vocab(), self.WAKES, self.GRID, k=2,
            )


class TestWeightFallback:
    def test_missing_insertion_weight_warned_once_per_run(self, weight_table, caplog):
        table = dataclasses.replace(
            weight_table,
            insertion={p: w for p, w in weight_table.insertion.items() if p != "ZH"},
        )
        wakes = [
            WakeWordSpec(id="WA", text="alpha", phones=("K", "AH")),
            WakeWordSpec(id="WB", text="beta", phones=("S", "EH")),
        ]
        vocab = [cand("kahzh", ("K", "AH", "ZH")), cand("sehzh", ("S", "EH", "ZH")), cand("kah", ("K", "AH"))]
        triggers = [LabeledTrigger("WA", "kahzh"), LabeledTrigger("WB", "sehzh")]
        grid = Grid(0.5, 1.0, 0.5)
        expected = "no insertion weight for 'ZH'; falling back to 1.0"
        with caplog.at_level(logging.WARNING):
            ranks = TriggerRanks(triggers, vocab, wakes, grid, "advanced", table)
            kept = filter_triggers(triggers, vocab, wakes, grid, threshold=10**6,
                                   variant="advanced", table=table, ranks=ranks)
            grid_search(kept, vocab, wakes, grid, "advanced", table, ranks=ranks)
        assert caplog.messages.count(expected) == 1
        # The table has logged it: the scalar scorer adds no warning, and a
        # copy of the table words the same fallback the same way.
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            ctx = CostContext(("K", "AH"), CostModel.advanced(ScaleFactors(), table))
            ctx.best_cost((("ZH",),))
            assert expected not in caplog.messages
            copy = dataclasses.replace(table)
            ctx = CostContext(("K", "AH"), CostModel.advanced(ScaleFactors(), copy))
            ctx.best_cost((("ZH",),))
        assert caplog.messages.count(expected) == 1

    def test_phone_only_in_blocked_candidates_is_never_looked_up(self, weight_table, caplog):
        table = dataclasses.replace(
            weight_table,
            insertion={p: w for p, w in weight_table.insertion.items() if p != "ZH"},
        )
        wakes = [WakeWordSpec(id="WA", text="alpha", phones=("K", "AH"))]
        vocab = [cand("kah", ("K", "AH")), cand("kahzh", ("K", "AH", "ZH"))]
        triggers = [LabeledTrigger("WA", "kah")]
        grid = Grid(0.5, 1.0, 0.5)
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            TriggerRanks(triggers, vocab, wakes, grid, "advanced", table,
                         {"WA": ["kahzh"]}).of("WA")
            assert "'ZH'" not in caplog.text
            # Kept, the same candidate's phone is looked up (and falls back).
            TriggerRanks(triggers, vocab, wakes, grid, "advanced", table).of("WA")
        assert "no insertion weight for 'ZH'; falling back to 1.0" in caplog.messages


# ---------------------------------------------------------------------------
# Property: one shared rank build agrees with rank_of at every grid point.

PHONES = ("B", "AA", "K", "IY", "S")
_pron = st.lists(st.sampled_from(PHONES), min_size=1, max_size=4).map(tuple)
_weight = st.sampled_from([0.5, 1.0, 1.5])


@st.composite
def tuning_cases(draw):
    # Labels may repeat: a trigger's target is the first candidate carrying it.
    vocab = [
        Candidate(label=f"w{draw(st.integers(0, 4))}",
                  prons=tuple(draw(st.lists(_pron, min_size=1, max_size=2))))
        for _ in range(draw(st.integers(2, 6)))
    ]
    labels = sorted({c.label for c in vocab})
    wakes, triggers, blocklists = [], [], {}
    for n in range(draw(st.integers(2, 3))):
        wake = WakeWordSpec(id=f"W{n}", text=f"wake {n}", phones=draw(_pron))
        wakes.append(wake)
        chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2))
        triggers += [LabeledTrigger(wake.id, label) for label in chosen]
        others = [label for label in labels if label not in chosen]
        blocklists[wake.id] = draw(st.lists(st.sampled_from(others), max_size=1)) if others else []
    lo = draw(st.sampled_from([0.0, 0.25, 0.5]))
    grid = Grid(lo, lo + draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.25, 0.5])))
    variant = draw(st.sampled_from(["simple", "advanced"]))
    table = None
    if variant == "advanced":
        # Entries may be missing: the fallback weight must agree too.
        table = WeightTable(
            deletion=draw(st.dictionaries(st.sampled_from(PHONES), _weight)),
            insertion=draw(st.dictionaries(st.sampled_from(PHONES), _weight)),
            substitution=draw(st.dictionaries(
                st.tuples(st.sampled_from(PHONES), st.sampled_from(PHONES)).filter(lambda pq: pq[0] != pq[1]),
                _weight,
            )),
        )
    threshold = draw(st.integers(1, len(vocab)))
    return vocab, wakes, triggers, blocklists, grid, variant, table, threshold


def naive_tuning(vocab, wakes, triggers, blocklists, grid, variant, table, threshold, k):
    """Filter, search, and each LOOCV fold's point and hits, from plain rank_of
    calls, point by point, fold by fold."""
    wake_map = {w.id: w for w in wakes}
    points = list(grid.points())

    def model_at(point):
        return CostModel.advanced(point, table) if variant == "advanced" else CostModel.simple(point)

    def rank(trigger, point):
        wake = wake_map[trigger.wake_id]
        blocked = {normalize_label(b) for b in (wake.text, *wake.explicit_blocklist,
                                                *blocklists[wake.id])}
        kept = [c for c in vocab if normalize_label(c.label) not in blocked]
        return rank_of(trigger.trigger_label, kept, wake, model_at(point))

    def search(training):
        best = None
        for point in points:
            per_wake = {}
            for t in training:
                per_wake[t.wake_id] = max(per_wake.get(t.wake_id, 0), rank(t, point))
            if best is None or sum(per_wake.values()) < best[1]:
                best = (point, sum(per_wake.values()), per_wake)
        return best

    kept = [t for t in triggers if min(rank(t, p) for p in points) <= threshold]
    fold_points, hits = [], {}
    for fold, wake in enumerate(wakes):
        point = search([t for t in triggers if t.wake_id != wake.id])[0]
        fold_points.append(point)
        ranked = rank_candidates(vocab, wake, model_at(point), k, fold, blocklist=blocklists[wake.id])
        top = {item.candidate.label for item in ranked.items}
        hits[wake.id] = sum(1 for t in triggers if t.wake_id == wake.id and t.trigger_label in top)
    return kept, search(triggers), fold_points, hits


@settings(max_examples=40, deadline=None)
@given(tuning_cases())
def test_shared_ranks_match_rank_of_everywhere(case):
    vocab, wakes, triggers, blocklists, grid, variant, table, threshold = case
    k = 2
    kept, (point, objective, per_wake), fold_points, hits = naive_tuning(
        vocab, wakes, triggers, blocklists, grid, variant, table, threshold, k
    )
    ranks = TriggerRanks(triggers, vocab, wakes, grid, variant, table, blocklists)
    common = dict(variant=variant, table=table, blocklists=blocklists, ranks=ranks)
    assert filter_triggers(triggers, vocab, wakes, grid, threshold=threshold, **common) == kept
    result = grid_search(triggers, vocab, wakes, grid, **common)
    assert (result.best, result.objective, result.per_wake_worst_rank) == (point, objective, per_wake)
    per_fold = {w.id: [t for t in triggers if t.wake_id == w.id] for w in wakes}
    with mock.patch.object(tuning, "rank_candidates", wraps=rank_candidates) as held_out_ranking:
        assert cross_validate(per_fold, vocab, wakes, grid, k=k, seed=0, **common) == hits
    # Each fold ranks its held-out wake word with the model tuned on the others.
    assert [call.args[2].scales for call in held_out_ranking.call_args_list] == fold_points


_any_weight = st.floats(0.05, 2.5)


def grid_pass_costs(wake, prons, variant, table, grid):
    """One candidate's cost at every grid point, from ``CostContext.weights``
    times the grid's scale vectors, as the rank pass prices it."""
    codes = PhoneCodes([prons])
    weights = CostContext(wake, CostModel(variant, ScaleFactors(), table)).weights(
        codes.phones, np.arange(len(codes.phones)))
    return tuning._grid_cost(codes.rows(0), tuning._grid_arrays(grid.axis_values()), weights)


@settings(max_examples=100, deadline=None)
@given(
    wake=_pron,
    prons=st.lists(st.lists(st.sampled_from(PHONES), max_size=5).map(tuple),
                   min_size=1, max_size=3),
    advanced=st.booleans(),
    # Entries may be missing, so fallback weights are compared too.
    table=st.builds(
        WeightTable,
        st.dictionaries(st.sampled_from(PHONES), _any_weight),
        st.dictionaries(st.sampled_from(PHONES), _any_weight),
        st.dictionaries(st.tuples(st.sampled_from(PHONES), st.sampled_from(PHONES))
                        .filter(lambda pq: pq[0] != pq[1]), _any_weight),
    ),
    lo=st.sampled_from([0.0, 0.05, 0.25]),
    step=st.sampled_from([0.05, 0.3]),
)
def test_grid_pass_costs_equal_the_kernel(wake, prons, advanced, table, lo, step):
    # Equal ranks can hide different costs; compare the costs, bit for bit.
    grid = Grid(lo, lo + 2 * step, step)
    variant, table = ("advanced", table) if advanced else ("simple", None)
    got = grid_pass_costs(wake, prons, variant, table, grid)
    expected = [CostContext(wake, CostModel(variant, point, table)).best_cost(prons)
                for point in grid.points()]
    assert got.tolist() == expected


# Three phones, so wake words repeat phones and candidates meet them in match cells.
_FEW = ("AA", "B", "K")
_few_table = st.builds(
    WeightTable,
    st.dictionaries(st.sampled_from(_FEW), _any_weight),
    st.dictionaries(st.sampled_from(_FEW), _any_weight),
    st.dictionaries(st.tuples(st.sampled_from(_FEW), st.sampled_from(_FEW))
                    .filter(lambda pq: pq[0] != pq[1]), _any_weight),
)


@settings(max_examples=150, deadline=None)
@given(
    wake=st.lists(st.sampled_from(_FEW), min_size=1, max_size=4).map(tuple),
    prons=st.lists(st.lists(st.sampled_from(_FEW), max_size=4).map(tuple),
                   min_size=1, max_size=3),
    advanced=st.booleans(),
    table=_few_table,  # entries may be missing: their weight falls back to 1
    lo=st.sampled_from([0.0, 0.0, 0.05, 0.25]),
    step=st.sampled_from([0.05, 0.3, 0.7]),
)
@example(wake=("AA", "B", "AA"), prons=[(), ("AA", "AA"), ("B", "AA", "K", "AA")],
         advanced=True, table=WeightTable({"AA": 0.5}, {"K": 2.0}, {("AA", "B"): 0.25}),
         lo=0.0, step=0.3)
def test_grid_pass_costs_equal_the_oracle(wake, prons, advanced, table, lo, step):
    # The brute-force enumeration of edit scripts shares no code with the kernel.
    grid = Grid(lo, lo + step, step)
    variant, table = ("advanced", table) if advanced else ("simple", None)
    got = grid_pass_costs(wake, prons, variant, table, grid)
    expected = [min(oracle_costs(wake, pron, [CostModel(variant, point, table)])[0]
                    for pron in prons)
                for point in grid.points()]
    assert got.tolist() == expected


# ---------------------------------------------------------------------------
# Tile pruning: the rank pass scores a candidate only on the tiles whose
# lattice corner it undercuts, and must count exactly what scoring it
# everywhere counts.


def _vocabulary(draw, lengths, count):
    """``count`` candidates of one or two rows of ``lengths`` phones; labels repeat,
    so a later candidate may carry a trigger's label without being its target."""
    row = st.lists(st.sampled_from(PHONES), min_size=lengths[0], max_size=lengths[1]).map(tuple)
    return [Candidate(label=f"w{draw(st.integers(0, count))}",
                      prons=tuple(draw(st.lists(row, min_size=1, max_size=2))))
            for _ in range(count)]


# 0 and 5e-324 make zero and subnormal prices, 1e300 and 1e308 huge and
# overflowing ones.
_EXTREME = st.sampled_from([0.0, 5e-324, 1e300, 1e308, 0.5, 1.0, 1.5])


@st.composite
def weight_tables(draw):
    """Each weight drawn from _EXTREME, or one weight for every entry; entries
    may be missing, so the fallback weight of 1 is priced too."""
    pairs = st.tuples(st.sampled_from(PHONES), st.sampled_from(PHONES)).filter(
        lambda pq: pq[0] != pq[1])
    if draw(st.booleans()):
        value = draw(_EXTREME)
        return WeightTable({p: value for p in PHONES}, {p: value for p in PHONES},
                           {(p, q): value for p in PHONES for q in PHONES if p != q})
    return WeightTable(draw(st.dictionaries(st.sampled_from(PHONES), _EXTREME)),
                       draw(st.dictionaries(st.sampled_from(PHONES), _EXTREME)),
                       draw(st.dictionaries(pairs, _EXTREME)))


@st.composite
def pruning_cases(draw):
    # 1 or 5-13 values per axis: one tile, a full one and a ragged last one.
    count = draw(st.sampled_from([1, *range(5, 14)]))
    lo, step = draw(st.sampled_from([0.0, 0.05, 0.5])), draw(st.sampled_from([0.05, 0.25, 1.0]))
    grid = Grid(lo, lo + (count - 1) * step, step)
    vocab = _vocabulary(draw, (0, 5), draw(st.integers(2, 12)))
    wake = WakeWordSpec(id="W", text="wake", phones=draw(_pron))
    labels = draw(st.lists(st.sampled_from(sorted({c.label for c in vocab})), min_size=1,
                           max_size=3, unique=True))
    variant = draw(st.sampled_from(["simple", "advanced"]))
    table = draw(weight_tables()) if variant == "advanced" else None
    return grid, vocab, wake, labels, variant, table


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(pruning_cases())
@example((Grid(0.0, 0.6, 0.05), [cand("w0", ("B",)), cand("w1", ("B", "AA")),
                                 cand("w2", ("K", "K", "S")), cand("w3", ("S",), ("AA",))],
          WakeWordSpec(id="W", text="wake", phones=("B", "AA")), ["w3", "w1"], "simple", None))
def test_pruned_ranks_equal_the_full_width_reference(case):
    grid, vocab, wake, labels, variant, table = case
    assert grid.point_count() == len(grid.axis_values()) ** 3
    triggers = [LabeledTrigger(wake.id, label) for label in labels]
    got = TriggerRanks(triggers, vocab, [wake], grid, variant, table).of(wake.id)
    expected = reference_rank_vectors(labels, vocab, wake, grid, variant, table)
    assert {label: v.tolist() for label, v in got.items()} == \
        {label: v.tolist() for label, v in expected.items()}


@st.composite
def relation_cases(draw):
    vocab = _vocabulary(draw, (1, 4), draw(st.integers(3, 14)))
    wakes = [WakeWordSpec(id=f"W{n}", text=f"wake {n}", phones=draw(_pron)) for n in range(2)]
    labels = sorted({c.label for c in vocab})
    triggers = [LabeledTrigger(wake.id, label) for wake in wakes
                for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2,
                                           unique=True))]
    variant = draw(st.sampled_from(["simple", "advanced"]))
    table = None
    if variant == "advanced":
        table = WeightTable(draw(st.dictionaries(st.sampled_from(PHONES), _weight)),
                            draw(st.dictionaries(st.sampled_from(PHONES), _weight)),
                            draw(st.dictionaries(st.tuples(st.sampled_from(PHONES),
                                                           st.sampled_from(PHONES)), _weight)))
    return vocab, wakes, triggers, variant, table


@settings(max_examples=30, deadline=None)
@given(relation_cases())
def test_a_sub_grid_ranks_as_the_full_grid_at_shared_points(case):
    # 10 values per axis tile as 4 + 4 + 2, the default's 21 as 5 x 4 + 1.
    vocab, wakes, triggers, variant, table = case
    coarse, fine = Grid(0.1, 1.0, 0.1), Grid.default()
    shared = [fine.axis_values().index(v) for v in coarse.axis_values()]
    assert (coarse.point_count(), fine.point_count(), len(shared)) == (1_000, 9_261, 10)
    small = TriggerRanks(triggers, vocab, wakes, coarse, variant, table)
    large = TriggerRanks(triggers, vocab, wakes, fine, variant, table)
    for wake in wakes:
        for label, vector in large.of(wake.id).items():
            at_shared = vector.reshape((21,) * 3)[np.ix_(shared, shared, shared)]
            assert at_shared.ravel().tolist() == small.of(wake.id)[label].tolist()


@settings(max_examples=50, deadline=None)
@given(relation_cases(), st.lists(st.lists(st.sampled_from(PHONES), min_size=3, max_size=8)
                                  .map(tuple), min_size=1, max_size=30))
def test_padding_that_costs_more_than_every_target_changes_no_rank(case, long_rows):
    vocab, wakes, triggers, variant, table = case
    grid = Grid(0.5, 1.0, 0.05)
    ranks = TriggerRanks(triggers, vocab, wakes, grid, variant, table)
    # Rows cost more than every target at every point of every wake word.
    targets = {wake.id: [reference_grid_costs(wake.phones, c.prons, grid, variant, table)
                         for label in ranks.of(wake.id)
                         for c in [next(c for c in vocab if c.label == label)]]
               for wake in wakes}
    padding = [cand(f"pad{n}", row) for n, row in enumerate(long_rows)
               if all((reference_grid_costs(wake.phones, [row], grid, variant, table)
                       > np.max(targets[wake.id], axis=0)).all() for wake in wakes)]
    assume(padding)
    padded = TriggerRanks(triggers, vocab[:1] + padding + vocab[1:], wakes, grid, variant, table)
    for wake in wakes:
        assert {label: v.tolist() for label, v in padded.of(wake.id).items()} == \
            {label: v.tolist() for label, v in ranks.of(wake.id).items()}


class TestFormatTuningReport:
    def test_sections_and_values(self):
        from triggercraft.tuning import TuningResult

        result = TuningResult(
            best=ScaleFactors(0.5, 1.0, 0.25),
            objective=7,
            per_wake_worst_rank={"VA2": 4, "VA1": 3},
            grid_points_evaluated=9261,
        )
        report = format_tuning_report(result, cross_validation={"VA1": 2}, filtered=(3, 4))
        lines = report.splitlines()
        assert lines[0] == "grid_points_evaluated\t9261"
        assert lines[1] == "best_scales\ts=0.5\td=1\ti=0.25"
        assert lines[2] == "objective\t7"
        assert "[per_wake_worst_rank]" in lines
        assert lines.index("VA1\t3") < lines.index("VA2\t4")
        assert "kept\t3\tof\t4" in lines
        assert "[cross_validation_hits]" in lines

    def test_optional_sections_absent(self):
        from triggercraft.tuning import TuningResult

        report = format_tuning_report(
            TuningResult(ScaleFactors(0, 0, 0), 1, {"W": 1}, 8)
        )
        assert "[trigger_filter]" not in report
        assert "[cross_validation_hits]" not in report
