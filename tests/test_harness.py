"""Measurement-log analysis: windows, bins, classification, agreement."""

import io
import logging
import random
from datetime import datetime, timezone

import pytest

from triggercraft.errors import (
    EmptyInput,
    EventBeyondMedia,
    LengthMismatch,
    NegativeProgress,
    OutOfRange,
    ParseError,
)
from triggercraft.harness import (
    ActivationObservation,
    Adjudication,
    TriggerAnalysis,
    TriggerEvent,
    VerificationResult,
    adjudicate,
    bin_reproducibility,
    classify_activation,
    cohens_kappa,
    format_summary,
    join_records,
    parse_adjudication_log,
    parse_event_log,
    parse_verification_log,
    summarize,
    verification_window,
)

TS = datetime(2019, 10, 1, 12, 0, 0, tzinfo=timezone.utc)


def event(speaker="VA1", media="show", progress=100.0):
    return TriggerEvent(TS, media, progress, speaker)


# A valid event record, field by field, as JSON text.
EVENT_FIELDS = {
    "ts": '"2019-10-01T12:00:00Z"', "media": '"x"', "progress_s": "5.0", "speaker": '"VA1"',
}


def record(**raw):
    """One JSON line: the event fields, then ``raw``, each value written verbatim."""
    fields = {**EVENT_FIELDS, **raw}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}\n"


class TestParseEventLog:
    GOOD = '{"ts": "2019-10-01T12:00:00Z", "media": "show_a_e01", "progress_s": 100.0, "speaker": "VA1"}\n'

    def test_example_record(self):
        events = parse_event_log(io.StringIO(self.GOOD))
        assert events == [
            TriggerEvent(TS, "show_a_e01", 100.0, "VA1")
        ]
        assert events[0].timestamp.tzinfo is not None

    def test_unknown_keys_ignored(self):
        line = self.GOOD.rstrip()[:-1] + ', "volume": 11}\n'
        assert len(parse_event_log(io.StringIO(line))) == 1

    def test_blank_lines_skipped(self):
        assert len(parse_event_log(io.StringIO("\n" + self.GOOD + "\n"))) == 1

    def test_bad_json_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_event_log(io.StringIO(self.GOOD + "{oops\n"))
        assert err.value.line == 2

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_event_log(io.StringIO('{"ts": "2019-10-01T12:00:00Z", "media": "x"}\n'))

    def test_negative_progress(self):
        bad = '{"ts": "2019-10-01T12:00:00Z", "media": "x", "progress_s": -1, "speaker": "VA1"}\n'
        with pytest.raises(NegativeProgress, match="line 1"):
            parse_event_log(io.StringIO(bad))

    def test_fixture_file(self, fixtures_dir):
        with open(fixtures_dir / "events.jsonl") as fh:
            assert len(parse_event_log(fh)) == 100

    @pytest.mark.parametrize("key,value", [
        ("ts", "5"), ("ts", "null"), ("media", "3"), ("media", '["x"]'),
        ("speaker", "1"), ("speaker", "null"),
        ("progress_s", "true"), ("progress_s", '"12.5"'), ("progress_s", "NaN"),
        ("progress_s", "Infinity"), ("progress_s", "-Infinity"), ("progress_s", "null"),
        ("progress_s", "1" + "0" * 400),
    ], ids=[
        "ts-number", "ts-null", "media-number", "media-list", "speaker-number",
        "speaker-null", "progress-boolean", "progress-string", "progress-nan",
        "progress-infinity", "progress-minus-infinity", "progress-null", "progress-overflow",
    ])
    def test_fields_must_have_their_json_types(self, key, value):
        with pytest.raises(ParseError) as err:
            parse_event_log(io.StringIO("\n" + record(**{key: value})))
        assert err.value.line == 2

    def test_integer_progress_accepted(self):
        [ev] = parse_event_log(io.StringIO(record(progress_s="12")))
        assert ev.progress_s == 12.0 and type(ev.progress_s) is float

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "null", "1" * 5000],
                             ids=["list", "string", "number", "null", "long-integer"])
    def test_record_must_be_a_json_object(self, line):
        with pytest.raises(ParseError) as err:
            parse_event_log(io.StringIO(record() + line + "\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize("parse", [parse_event_log, parse_verification_log,
                                       parse_adjudication_log], ids=lambda f: f.__name__)
    def test_deep_nesting_is_a_parse_error(self, parse):
        with pytest.raises(ParseError, match="bad JSON") as err:
            parse(io.StringIO("\n" + "[" * 100_000 + "\n"))
        assert err.value.line == 2


class TestParseVerificationLog:
    BASE = '{"ts": "2019-10-01T12:00:00Z", "media": "x", "progress_s": 5.0, "speaker": "VA1"'

    def test_defaults(self):
        [(ver, obs)] = parse_verification_log(io.StringIO(self.BASE + ', "hits": 7}\n'))
        assert ver.replays == 10
        assert ver.hits == 7
        assert obs.led_on_s == 0.0
        assert obs.voice_response is False
        assert obs.pattern_cloud_signal is False

    def test_full_record(self):
        line = self.BASE + ', "replays": 5, "hits": 2, "led_on_s": 2.5, "voice_response": true, "cloud_pattern": true}\n'
        [(ver, obs)] = parse_verification_log(io.StringIO(line))
        assert (ver.replays, ver.hits) == (5, 2)
        assert obs.led_on_s == 2.5
        assert obs.voice_response and obs.pattern_cloud_signal

    def test_hits_required(self):
        with pytest.raises(ParseError):
            parse_verification_log(io.StringIO(self.BASE + "}\n"))

    def test_hits_beyond_replays(self):
        with pytest.raises(ParseError) as err:
            parse_verification_log(io.StringIO(self.BASE + ', "replays": 5, "hits": 6}\n'))
        assert err.value.line == 1

    @pytest.mark.parametrize("fields", [
        '"hits": 2, "voice_response": "false"',
        '"hits": 2, "cloud_pattern": "false"',
        '"hits": 2, "voice_response": 0',
        '"hits": 2, "cloud_pattern": null',
        '"hits": 2.9',
        '"hits": "2"',
        '"hits": true',
        '"hits": 2, "replays": 9.5',
        '"hits": 2, "replays": "10"',
    ], ids=[
        "voice-string", "cloud-string", "voice-number", "cloud-null", "hits-fraction",
        "hits-string", "hits-boolean", "replays-fraction", "replays-string",
    ])
    def test_signals_must_be_booleans_and_counts_integral(self, fields):
        lines = io.StringIO("\n" + self.BASE + ", " + fields + "}\n")
        with pytest.raises(ParseError) as err:
            parse_verification_log(lines)
        assert err.value.line == 2

    def test_integral_float_counts_accepted(self):
        line = self.BASE + ', "replays": 10.0, "hits": 3.0, "voice_response": false}\n'
        [(ver, obs)] = parse_verification_log(io.StringIO(line))
        assert (ver.replays, ver.hits) == (10, 3)
        assert type(ver.hits) is int and type(ver.replays) is int
        assert obs.voice_response is False

    def test_fixture_file(self, fixtures_dir):
        with open(fixtures_dir / "verification.jsonl") as fh:
            assert len(parse_verification_log(fh)) == 100

    @pytest.mark.parametrize("value", ["true", '"1.5"', "NaN", "Infinity", "null"])
    def test_led_on_must_be_a_finite_number(self, value):
        with pytest.raises(ParseError) as err:
            parse_verification_log(io.StringIO("\n" + record(hits="2", led_on_s=value)))
        assert err.value.line == 2

    def test_integer_led_on_accepted(self):
        [(_, obs)] = parse_verification_log(io.StringIO(record(hits="2", led_on_s="3")))
        assert obs.led_on_s == 3.0 and type(obs.led_on_s) is float

    @pytest.mark.parametrize("replays,hits", [(20, 15), (11, 0)])
    def test_replays_at_most_ten(self, replays, hits):
        lines = io.StringIO("\n" + record(replays=str(replays), hits=str(hits)))
        with pytest.raises(ParseError, match="replays") as err:
            parse_verification_log(lines)
        assert err.value.line == 2


class TestParseAdjudicationLog:
    BASE = '{"ts": "2019-10-01T12:00:00Z", "media": "x", "progress_s": 5.0, "speaker": "VA1"'

    def test_record(self):
        line = self.BASE + ', "reviewer_a": "accidental", "reviewer_b": "related-word"}\n'
        [adj] = parse_adjudication_log(io.StringIO(line))
        assert (adj.reviewer_a, adj.reviewer_b) == ("accidental", "related-word")

    def test_unknown_label(self):
        line = self.BASE + ', "reviewer_a": "accidental", "reviewer_b": "meh"}\n'
        with pytest.raises(ParseError):
            parse_adjudication_log(io.StringIO(line))

    def test_missing_reviewer(self):
        line = self.BASE + ', "reviewer_a": "accidental"}\n'
        with pytest.raises(ParseError):
            parse_adjudication_log(io.StringIO(line))

    def test_fixture_file(self, fixtures_dir):
        with open(fixtures_dir / "adjudication.jsonl") as fh:
            assert len(parse_adjudication_log(fh)) == 100


class TestVerificationWindow:
    def test_interior_position(self):
        assert verification_window(event(progress=100.0), 3600.0) == (93.0, 103.0)

    def test_clamped_at_start(self):
        assert verification_window(event(progress=2.0), 3600.0) == (0.0, 5.0)

    def test_clamped_at_end(self):
        assert verification_window(event(progress=3599.0), 3600.0) == (3592.0, 3600.0)

    def test_position_at_media_end(self):
        assert verification_window(event(progress=3600.0), 3600.0) == (3593.0, 3600.0)

    def test_event_past_media_end(self):
        with pytest.raises(EventBeyondMedia):
            verification_window(event(progress=4000.0), 3600.0)

    @pytest.mark.parametrize("length", [0.0, -5.0])
    def test_media_length_positive(self, length):
        with pytest.raises(ValueError):
            verification_window(event(progress=0.0), length)


class TestBinReproducibility:
    @pytest.mark.parametrize(
        "hits,expected",
        [
            (0, "none"),
            (1, "low"), (3, "low"),
            (4, "medium"), (7, "medium"),
            (8, "high"), (10, "high"),
        ],
    )
    def test_bin_edges(self, hits, expected):
        assert bin_reproducibility(hits) == expected

    @pytest.mark.parametrize("bad", [-1, 11, 3.5, "3"])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            bin_reproducibility(bad)

    def test_verification_result_bin_property(self):
        assert VerificationResult(event(), hits=9).bin == "high"


class TestVerificationResult:
    def test_hits_bounded_by_replays(self):
        with pytest.raises(ValueError):
            VerificationResult(event(), replays=5, hits=6)

    def test_replays_positive(self):
        with pytest.raises(ValueError):
            VerificationResult(event(), replays=0, hits=0)

    def test_replays_at_most_ten(self):
        # Reproducibility bins are defined on 0..10 hits.
        with pytest.raises(ValueError):
            VerificationResult(event(), replays=11, hits=0)

    def test_negative_hits(self):
        with pytest.raises(ValueError):
            VerificationResult(event(), hits=-1)


class TestClassifyActivation:
    def obs(self, led=0.0, voice=False, pattern=False):
        return ActivationObservation(
            event(), led_on_s=led, voice_response=voice, pattern_cloud_signal=pattern
        )

    def test_short_light_stays_local(self):
        assert classify_activation(self.obs(led=1.99)) == "local"

    def test_threshold_light_goes_cloud(self):
        assert classify_activation(self.obs(led=2.0)) == "local_plus_cloud"

    def test_voice_response_goes_cloud(self):
        assert classify_activation(self.obs(voice=True)) == "local_plus_cloud"

    def test_pattern_signal_goes_cloud(self):
        assert classify_activation(self.obs(pattern=True)) == "local_plus_cloud"

    def test_custom_threshold(self):
        assert classify_activation(self.obs(led=4.9), threshold_s=5.0) == "local"
        assert classify_activation(self.obs(led=5.0), threshold_s=5.0) == "local_plus_cloud"

    def test_monotone_in_light_duration(self):
        seen_cloud = False
        for led in [0.0, 0.5, 1.0, 1.99, 2.0, 2.5, 60.0]:
            if classify_activation(self.obs(led=led)) == "local_plus_cloud":
                seen_cloud = True
            else:
                assert not seen_cloud  # never falls back to local


class TestAdjudicate:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("accidental", "accidental", "accidental"),
            ("wake-word-present", "wake-word-present", "discarded"),
            ("related-word", "related-word", "discarded"),
            ("wake-word-present", "related-word", "discarded"),
            ("accidental", "wake-word-present", "needs-review"),
            ("related-word", "accidental", "needs-review"),
        ],
    )
    def test_resolution_table(self, a, b, expected):
        assert adjudicate(a, b) == expected

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            adjudicate("accidental", "hmm")

    def test_dataclass_resolution_property(self):
        adj = Adjudication(event(), "accidental", "accidental")
        assert adj.resolution == "accidental"

    def test_dataclass_validates_labels(self):
        with pytest.raises(ValueError):
            Adjudication(event(), "accidental", "nope")


class TestCohensKappa:
    def test_perfect_agreement(self):
        a = ["accidental", "related-word", "accidental", "wake-word-present"]
        assert cohens_kappa(a, list(a)) == 1.0

    def test_single_shared_label_counts_as_perfect(self):
        assert cohens_kappa(["accidental"] * 5, ["accidental"] * 5) == 1.0

    def test_balanced_ninety_percent_agreement(self):
        # 45 + 45 agreements and 5 + 5 swaps on two balanced labels:
        # observed 0.9, chance 0.5, kappa 0.8.
        a = ["accidental"] * 50 + ["wake-word-present"] * 50
        b = (
            ["accidental"] * 45 + ["wake-word-present"] * 5
            + ["accidental"] * 5 + ["wake-word-present"] * 45
        )
        assert abs(cohens_kappa(a, b) - 0.8) < 1e-9

    def test_total_disagreement(self):
        a = ["accidental", "wake-word-present"] * 10
        b = ["wake-word-present", "accidental"] * 10
        assert cohens_kappa(a, b) == -1.0

    def test_independent_raters_near_zero(self):
        rng = random.Random(20250818)
        labels = ["accidental", "wake-word-present", "related-word"]
        a = [rng.choice(labels) for _ in range(10000)]
        b = [rng.choice(labels) for _ in range(10000)]
        assert abs(cohens_kappa(a, b)) < 0.05

    def test_symmetry(self):
        rng = random.Random(7)
        labels = ["accidental", "wake-word-present", "related-word"]
        a = [rng.choice(labels) for _ in range(200)]
        b = [rng.choice(labels) for _ in range(200)]
        assert cohens_kappa(a, b) == cohens_kappa(b, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cohens_kappa(["accidental"], ["accidental", "accidental"])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            cohens_kappa([], [])


def analysis(speaker, media, progress, hits, labels=None, led=0.0, voice=False):
    ev = TriggerEvent(TS, media, progress, speaker)
    ver = VerificationResult(ev, hits=hits)
    obs = ActivationObservation(ev, led_on_s=led, voice_response=voice)
    adj = Adjudication(ev, *labels) if labels else None
    return TriggerAnalysis(verification=ver, adjudication=adj, observation=obs)


class TestJoinRecords:
    def _lines(self, records):
        import json

        return [json.dumps(r) + "\n" for r in records]

    def base(self, progress, **extra):
        return {
            "ts": "2019-10-01T12:00:00Z", "media": "show",
            "progress_s": progress, "speaker": "VA1", **extra,
        }

    def test_joins_on_speaker_media_position(self):
        events = parse_event_log(self._lines([self.base(10.0), self.base(20.0)]))
        vers = parse_verification_log(
            self._lines([self.base(20.0, hits=3), self.base(10.0, hits=9)])
        )
        adjs = parse_adjudication_log(
            self._lines([self.base(10.0, reviewer_a="accidental", reviewer_b="accidental")])
        )
        analyses = join_records(events, vers, adjs)
        assert [a.event.progress_s for a in analyses] == [10.0, 20.0]
        assert analyses[0].verification.hits == 9
        assert analyses[0].adjudication is not None
        assert analyses[1].adjudication is None

    def test_unverified_events_skipped_with_warning(self, caplog):
        events = parse_event_log(self._lines([self.base(10.0), self.base(20.0)]))
        vers = parse_verification_log(self._lines([self.base(10.0, hits=1)]))
        with caplog.at_level(logging.WARNING, logger="triggercraft.harness"):
            analyses = join_records(events, vers, [])
        assert len(analyses) == 1
        assert any("no verification" in r.message for r in caplog.records)

    def test_orphan_records_warned(self, caplog):
        vers = parse_verification_log(self._lines([self.base(10.0, hits=1)]))
        with caplog.at_level(logging.WARNING, logger="triggercraft.harness"):
            analyses = join_records([], vers, [])
        assert analyses == []
        assert any("match no event" in r.message for r in caplog.records)

    def test_duplicate_positions_pair_in_order(self):
        events = parse_event_log(self._lines([self.base(10.0), self.base(10.0)]))
        vers = parse_verification_log(
            self._lines([self.base(10.0, hits=2), self.base(10.0, hits=8)])
        )
        analyses = join_records(events, vers, [])
        assert [a.verification.hits for a in analyses] == [2, 8]

    def test_repeated_keys_pair_first_in_first_out(self, caplog):
        # Three events share one key, with two verifications and three
        # adjudications of it; key 30.0 has two verifications and an
        # adjudication but no event.
        events = parse_event_log(self._lines([self.base(10.0)] * 3 + [self.base(20.0)]))
        vers = parse_verification_log(self._lines(
            [self.base(10.0, hits=1), self.base(30.0, hits=9), self.base(10.0, hits=2),
             self.base(20.0, hits=5), self.base(30.0, hits=4)]
        ))
        labels = [("accidental", "accidental"), ("related-word", "accidental"),
                  ("wake-word-present", "wake-word-present")]
        adjs = parse_adjudication_log(self._lines(
            [self.base(10.0, reviewer_a=a, reviewer_b=b) for a, b in labels]
            + [self.base(30.0, reviewer_a="accidental", reviewer_b="accidental")]
        ))
        with caplog.at_level(logging.WARNING, logger="triggercraft.harness"):
            analyses = join_records(events, vers, adjs)
        assert [(a.event.progress_s, a.verification.hits) for a in analyses] == [
            (10.0, 1), (10.0, 2), (20.0, 5)
        ]
        assert [a.adjudication.reviewer_a if a.adjudication else None for a in analyses] == [
            "accidental", "related-word", None
        ]
        # Unverified: the third event of key 10.0.  Orphans: the three records
        # of key 30.0, and the third adjudication of 10.0.
        assert [r.getMessage() for r in caplog.records] == [
            "1 events have no verification record",
            "4 verification/adjudication records match no event",
        ]


class TestSummarize:
    def build(self):
        return [
            analysis("VA1", "show", 10.0, hits=0, labels=("accidental", "accidental")),
            analysis("VA1", "show", 20.0, hits=3, labels=("wake-word-present", "related-word"), led=2.5),
            analysis("VA1", "news", 30.0, hits=5, labels=("accidental", "related-word")),
            analysis("VA2", "show", 40.0, hits=10, voice=True),
        ]

    def test_counts_by_media_and_speaker(self):
        summary = summarize(self.build())
        assert summary.counts[("show", "VA1")] == [1, 1, 0]
        assert summary.counts[("news", "VA1")] == [0, 0, 1]  # split reviewers
        assert summary.counts[("show", "VA2")] == [0, 0, 1]  # missing adjudication

    def test_bins_histogram(self):
        summary = summarize(self.build())
        assert summary.bins["VA1"] == {"none": 1, "low": 1, "medium": 1, "high": 0}
        assert summary.bins["VA2"] == {"none": 0, "low": 0, "medium": 0, "high": 1}

    def test_activation_split(self):
        summary = summarize(self.build())
        assert summary.activation["VA1"] == {"local": 2, "local_plus_cloud": 1}
        assert summary.activation["VA2"] == {"local": 0, "local_plus_cloud": 1}

    def test_kappa_only_over_adjudicated(self):
        summary = summarize(self.build())
        assert summary.kappa == cohens_kappa(
            ["accidental", "wake-word-present", "accidental"],
            ["accidental", "related-word", "related-word"],
        )

    def test_kappa_none_without_adjudications(self):
        summary = summarize([analysis("VA1", "show", 10.0, hits=0)])
        assert summary.kappa is None

    def test_order_independent(self):
        rng = random.Random(4)
        items = self.build()
        expected = summarize(items)
        for _ in range(5):
            rng.shuffle(items)
            got = summarize(items)
            assert got.counts == expected.counts
            assert got.bins == expected.bins
            assert got.activation == expected.activation
            assert got.kappa == expected.kappa


class TestFormatSummary:
    def test_sections_and_totals(self):
        summary = summarize(TestSummarize().build())
        text = format_summary(summary)
        lines = text.splitlines()
        assert lines[0] == "[counts]"
        assert lines[1] == "media\tspeaker\tA\tW\tneeds_review"
        assert "news\tVA1\t0\t0\t1" in lines
        assert "ALL\tVA1\t1\t1\t1" in lines
        assert "ALL\tVA2\t0\t0\t1" in lines
        assert "[reproducibility]" in lines
        assert "VA1\t1\t1\t1\t0" in lines
        assert "[activation]" in lines
        assert "VA2\t0\t1" in lines

    def test_kappa_line_present_and_formatted(self):
        summary = summarize(TestSummarize().build())
        assert "[agreement]" in format_summary(summary)
        summary.kappa = 0.8
        assert "cohens_kappa\t0.800000" in format_summary(summary)

    def test_kappa_section_omitted_when_absent(self):
        summary = summarize([analysis("VA1", "show", 10.0, hits=0)])
        assert "[agreement]" not in format_summary(summary)


class TestFixtureEndToEnd:
    def test_full_join_and_kappa(self, fixtures_dir):
        with open(fixtures_dir / "events.jsonl") as fh:
            events = parse_event_log(fh)
        with open(fixtures_dir / "verification.jsonl") as fh:
            vers = parse_verification_log(fh)
        with open(fixtures_dir / "adjudication.jsonl") as fh:
            adjs = parse_adjudication_log(fh)
        analyses = join_records(events, vers, adjs)
        assert len(analyses) == 100
        summary = summarize(analyses)
        # The bundled adjudications follow the balanced 45/5/5/45 pattern.
        assert summary.kappa == 0.8
        total = [0, 0, 0]
        for row in summary.counts.values():
            for idx in range(3):
                total[idx] += row[idx]
        assert sum(total) == 100
        assert sum(sum(b.values()) for b in summary.bins.values()) == 100
