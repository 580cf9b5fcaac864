"""Probe planning, score aggregation, and weight-table normalization."""

import io
import logging
import math
import random

import pytest

from triggercraft.errors import (
    EmptyInput,
    FormatError,
    MissingRow,
    NoQualifyingWords,
    ParseError,
    ZeroMean,
)
from triggercraft.lexicon import WakeWordSpec
from triggercraft.weights import (
    ProbeScore,
    aggregate_weights,
    build_weight_table,
    load_probe_scores,
    load_weight_table,
    normalize_mean_one,
    plan_rows,
    sample_probe_words,
    store_weight_table,
)

SCORE_HEADER = "phone\tedit\ttarget\tword\tvoice\tscore_delta\n"


def score(phone, edit, delta, target=None, word="W", voice=1):
    return ProbeScore(
        phone=phone, edit=edit, target=target, word=word, voice=voice, score_delta=delta
    )


class TestSampleProbeWords:
    def test_deterministic_for_seed(self, mini_dictionary):
        a = sample_probe_words(mini_dictionary, "AH", n_words=5, seed=42)
        b = sample_probe_words(mini_dictionary, "AH", n_words=5, seed=42)
        assert a == b
        assert len(a.words) == 5

    def test_sampled_words_contain_the_phone(self, mini_dictionary):
        plan = sample_probe_words(mini_dictionary, "AH", n_words=8, seed=1)
        for word in plan.words:
            assert any("AH" in v.phones for v in mini_dictionary.lookup(word))

    def test_any_variant_qualifies(self, mini_dictionary):
        # EY only occurs in A's *second* variant, which must still qualify it.
        plan = sample_probe_words(mini_dictionary, "EY", n_words=50, seed=1)
        assert "A" in plan.words

    def test_small_pool_uses_everything_and_warns(self, mini_dictionary, caplog):
        with caplog.at_level(logging.WARNING, logger="triggercraft.weights"):
            plan = sample_probe_words(mini_dictionary, "SH", n_words=10, seed=0)
        qualifying = [
            w
            for w in mini_dictionary.words()
            if any("SH" in v.phones for v in mini_dictionary.lookup(w))
        ]
        assert sorted(plan.words) == sorted(qualifying)
        assert len(plan.words) < 10
        assert any("requested words" in r.message for r in caplog.records)

    def test_no_qualifying_words(self, mini_dictionary):
        with pytest.raises(NoQualifyingWords):
            sample_probe_words(mini_dictionary, "ZH", n_words=3, seed=0)

    @pytest.mark.parametrize("n_words, n_voices", [(0, 10), (-1, 10), (5, 0), (5, -2)])
    def test_counts_below_one_rejected(self, mini_dictionary, n_words, n_voices):
        with pytest.raises(ValueError, match="must be >= 1"):
            sample_probe_words(mini_dictionary, "AH", n_words, seed=0, n_voices=n_voices)


class TestPlanRows:
    def test_row_expansion(self, mini_dictionary):
        plan = sample_probe_words(mini_dictionary, "AH", n_words=2, seed=9, n_voices=3)
        rows = plan_rows(plan, ["AH", "B", "K"])
        # Per word+voice: one delete, one insert, one substitution per other phone.
        assert len(rows) == 2 * 3 * (2 + 2)
        assert {r[4] for r in rows} == {1, 2, 3}
        assert all(r[2] == "-" for r in rows if r[1] in ("delete", "insert"))
        sub_targets = {r[2] for r in rows if r[1] == "substitute"}
        assert sub_targets == {"B", "K"}


class TestLoadProbeScores:
    def test_parses_rows(self):
        text = SCORE_HEADER + "AH\tdelete\t-\tABOUT\t3\t0.41\nAH\tsubstitute\tEH\tABOUT\t3\t0.2\n"
        scores = load_probe_scores(io.StringIO(text))
        assert scores[0] == score("AH", "delete", 0.41, word="ABOUT", voice=3)
        assert scores[1].target == "EH"

    def test_fixture_parses(self, probe_scores):
        assert len(probe_scores) > 2000
        assert {s.edit for s in probe_scores} == {"delete", "insert", "substitute"}

    def test_header_required(self):
        with pytest.raises(ParseError) as err:
            load_probe_scores(io.StringIO("AH\tdelete\t-\tABOUT\t3\t0.41\n"))
        assert err.value.line == 1

    def test_blank_lines_skipped(self):
        text = "\n" + SCORE_HEADER + "\nAH\tinsert\t-\tABOUT\t1\t0.1\n\n"
        assert len(load_probe_scores(io.StringIO(text))) == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_probe_scores(io.StringIO(""))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            load_probe_scores(io.StringIO(SCORE_HEADER + "AH\tdelete\t-\tABOUT\t3\n"))
        assert err.value.line == 2

    def test_bad_delta(self):
        with pytest.raises(ParseError):
            load_probe_scores(io.StringIO(SCORE_HEADER + "AH\tdelete\t-\tABOUT\t3\tlots\n"))

    def test_substitute_needs_target(self):
        with pytest.raises(ParseError):
            load_probe_scores(io.StringIO(SCORE_HEADER + "AH\tsubstitute\t-\tABOUT\t3\t0.1\n"))

    def test_delete_must_not_have_target(self):
        with pytest.raises(ParseError):
            load_probe_scores(io.StringIO(SCORE_HEADER + "AH\tdelete\tEH\tABOUT\t3\t0.1\n"))

    def test_unknown_edit_kind(self):
        with pytest.raises(ParseError):
            load_probe_scores(io.StringIO(SCORE_HEADER + "AH\ttranspose\t-\tABOUT\t3\t0.1\n"))

    # A voice is ASCII digits from 1 up, as a probe plan numbers them; a
    # delta is an ASCII number without "_".
    @pytest.mark.parametrize("voice,delta", [
        ("1_0", "0.5"), ("\u0663", "0.5"), ("+3", "0.5"), (" 3", "0.5"), ("0", "0.5"),
        ("-2", "0.5"), ("1", "1_0.5"), ("1", "\u0661"),
    ], ids=["voice-underscore", "voice-arabic-digit", "voice-plus", "voice-space", "voice-zero",
            "voice-negative", "delta-underscore", "delta-arabic-digit"])
    def test_numbers_are_ascii_and_voices_count_from_one(self, voice, delta):
        text = SCORE_HEADER + "AH\tdelete\t-\tABOUT\t1\t0.5\n"
        text += f"AH\tinsert\t-\tABOUT\t{voice}\t{delta}\n"
        with pytest.raises(ParseError) as err:
            load_probe_scores(io.StringIO(text))
        assert err.value.line == 3

    def test_probe_score_voice_below_one_rejected(self):
        with pytest.raises(ValueError, match="voice 0"):
            score("AH", "delete", 0.5, voice=0)


class TestAggregateWeights:
    def test_per_phone_mean(self):
        scores = [
            score("AH", "delete", 0.5, voice=1),
            score("AH", "delete", 1.5, voice=2),
            score("K", "delete", 3.0, voice=1),
        ]
        assert aggregate_weights(scores, "delete") == {"AH": 1.0, "K": 3.0}

    def test_substitutions_keyed_by_pair(self):
        scores = [
            score("AH", "substitute", 0.2, target="EH", voice=1),
            score("AH", "substitute", 0.4, target="EH", voice=2),
            score("AH", "substitute", 0.9, target="IY", voice=1),
        ]
        out = aggregate_weights(scores, "substitute")
        assert out[("AH", "EH")] == pytest.approx(0.3)
        assert out[("AH", "IY")] == 0.9

    def test_negative_mean_clamped_with_diagnostic(self, caplog):
        scores = [score("AH", "insert", -0.5, voice=1), score("AH", "insert", -0.1, voice=2)]
        with caplog.at_level(logging.WARNING, logger="triggercraft.weights"):
            out = aggregate_weights(scores, "insert")
        assert out == {"AH": 0.0}
        assert any("clamping" in r.message for r in caplog.records)

    def test_mean_is_input_order_independent(self):
        rng = random.Random(5)
        scores = [
            score("AH", "delete", rng.uniform(-1, 3), word=f"W{k}", voice=v)
            for k in range(40)
            for v in range(1, 4)
        ]
        expected = aggregate_weights(scores, "delete")
        for _ in range(5):
            rng.shuffle(scores)
            assert aggregate_weights(scores, "delete") == expected

    def test_duplicate_cell_rejected(self):
        scores = [score("AH", "delete", 0.5), score("AH", "delete", 0.7)]
        with pytest.raises(ValueError, match="duplicate"):
            aggregate_weights(scores, "delete")

    def test_mixed_kinds_rejected(self):
        scores = [score("AH", "delete", 0.5), score("AH", "insert", 0.7)]
        with pytest.raises(ValueError):
            aggregate_weights(scores, "delete")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate_weights([], "delete")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            aggregate_weights([score("AH", "delete", 0.5)], "transpose")


class TestNormalizeMeanOne:
    def test_mean_becomes_one(self):
        out = normalize_mean_one({"A": 2.0, "B": 4.0})
        assert out == {"A": 2.0 / 3.0, "B": 4.0 / 3.0}
        assert abs(math.fsum(out.values()) / len(out) - 1.0) < 1e-12

    def test_already_uniform_is_identity(self):
        assert normalize_mean_one({"A": 2.0, "B": 2.0}) == {"A": 1.0, "B": 1.0}

    def test_zeros_allowed_if_mean_positive(self):
        out = normalize_mean_one({"A": 0.0, "B": 2.0})
        assert out == {"A": 0.0, "B": 2.0}

    def test_zero_mean(self):
        with pytest.raises(ZeroMean):
            normalize_mean_one({"A": 0.0, "B": 0.0})

    def test_empty(self):
        with pytest.raises(EmptyInput):
            normalize_mean_one({})


def _tiny_scores(include_diagonal=False):
    """Probe scores covering a one-phone wake word ("B AA" -> AA, B)."""
    phones = ["AA", "B"]
    scores = []
    for p in phones:
        for v in (1, 2):
            scores.append(score(p, "delete", 0.2 + 0.1 * v, voice=v))
            scores.append(score(p, "insert", 0.5 + 0.1 * v, voice=v))
            for q in phones:
                if q == p and not include_diagonal:
                    continue
                scores.append(score(p, "substitute", 0.4 + 0.05 * v, target=q, voice=v))
    return scores


class TestBuildWeightTable:
    WAKE = [WakeWordSpec(id="W", text="ba", phones=("B", "AA"))]

    def test_invariants_hold(self):
        table = build_weight_table(_tiny_scores(), self.WAKE)
        table.validate(tolerance=1e-12)
        assert table.row_phones == {"AA", "B"}

    def test_fixture_table_covers_all_wake_phones(self, weight_table, wake_words):
        wake_phones = {p for w in wake_words for p in w.phones}
        assert wake_phones <= set(weight_table.deletion)
        assert wake_phones <= weight_table.row_phones

    def test_diagonal_scores_dropped_with_diagnostic(self, caplog):
        with caplog.at_level(logging.WARNING, logger="triggercraft.weights"):
            with_diag = build_weight_table(_tiny_scores(include_diagonal=True), self.WAKE)
        without = build_weight_table(_tiny_scores(), self.WAKE)
        assert with_diag == without
        assert any("diagonal" in r.message for r in caplog.records)

    def test_missing_deletion_row(self):
        scores = [s for s in _tiny_scores() if not (s.edit == "delete" and s.phone == "B")]
        with pytest.raises(MissingRow) as err:
            build_weight_table(scores, self.WAKE)
        assert err.value.phones == ["B"]

    def test_missing_substitution_row(self):
        scores = [s for s in _tiny_scores() if not (s.edit == "substitute" and s.phone == "AA")]
        with pytest.raises(MissingRow) as err:
            build_weight_table(scores, self.WAKE)
        assert err.value.phones == ["AA"]

    def test_rows_normalized_independently(self):
        table = build_weight_table(_tiny_scores(), self.WAKE)
        rows: dict[str, list[float]] = {}
        for (row, _), value in table.substitution.items():
            rows.setdefault(row, []).append(value)
        for values in rows.values():
            assert abs(math.fsum(values) / len(values) - 1.0) < 1e-12


class TestStoreLoadRoundTrip:
    def test_exact_round_trip(self):
        table = build_weight_table(_tiny_scores(), TestBuildWeightTable.WAKE)
        buf = io.StringIO()
        store_weight_table(table, buf)
        back = load_weight_table(io.StringIO(buf.getvalue()))
        assert back.deletion == table.deletion
        assert back.insertion == table.insertion
        assert back.substitution == table.substitution
        assert back.row_phones == table.row_phones

    def test_fixture_round_trip(self, weight_table):
        buf = io.StringIO()
        store_weight_table(weight_table, buf)
        back = load_weight_table(io.StringIO(buf.getvalue()))
        assert back == weight_table

    def test_comments_and_blanks_ignored(self):
        text = "# note\n[deletion]\nAA\t1.0\n\n[insertion]\nAA\t1.0\n[substitution]\nAA\tB\t1.0\n"
        table = load_weight_table(io.StringIO(text))
        assert table.deletion == {"AA": 1.0}

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("[frobnication]\nAA\t1.0\n", "unknown section"),
            ("AA\t1.0\n", "before any section"),
            ("[deletion]\nAA\t1.0\textra\n", "rows need"),
            ("[deletion]\nAA\tmany\n", "bad weight"),
            ("[substitution]\nAA\t1.0\n", "rows need"),
            ("[deletion]\nAA\t1.0\nAA\t1.0\n", "duplicate"),
        ],
    )
    def test_structural_errors(self, text, needle):
        with pytest.raises(FormatError, match=needle):
            load_weight_table(io.StringIO(text))

    @pytest.mark.parametrize("weight", ["0_1", "\u0661", "1_0.0"])
    def test_weight_is_an_ascii_number(self, weight):
        text = f"[deletion]\nAA\t1.0\n[insertion]\nAA\t{weight}\n[substitution]\nAA\tB\t1.0\n"
        with pytest.raises(FormatError, match="line 4: bad weight value"):
            load_weight_table(io.StringIO(text))

    def test_unnormalized_table_rejected(self):
        text = "[deletion]\nAA\t2.0\n[insertion]\nAA\t1.0\n[substitution]\nAA\tB\t1.0\n"
        with pytest.raises(FormatError, match="mean"):
            load_weight_table(io.StringIO(text))

    def test_negative_weight_rejected(self):
        text = "[deletion]\nAA\t3.0\nB\t-1.0\n[insertion]\nAA\t1.0\n[substitution]\nAA\tB\t1.0\n"
        with pytest.raises(FormatError):
            load_weight_table(io.StringIO(text))
