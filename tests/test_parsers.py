"""Every text parser either accepts its input or raises a TriggerCraftError.

Arbitrary lines, and arbitrary JSON objects over the known record keys, go
to each parser; nothing but the package's own errors may come out.  The
three measurement-log parsers, and the join of their records, must also
give what the reference implementations in ``oracles`` give.  Stored
dictionaries and weight tables read back exactly as they were written.
"""

import io
import json
import logging
import math
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dictionary_listing, reference_join, reference_log
from triggercraft.errors import ConfigError, TriggerCraftError
from triggercraft.harness import (
    MAX_REPLAYS,
    Adjudication,
    TriggerEvent,
    VerificationResult,
    join_records,
    parse_adjudication_log,
    parse_event_log,
    parse_verification_log,
)
from triggercraft.lexicon import (
    CONSONANTS,
    VOWELS,
    PhoneInventory,
    load_dictionary,
)
from triggercraft.readers import text_integer, text_number
from triggercraft.tuning import MAX_GRID_POINTS, load_trigger_labels
from triggercraft.weights import (
    ProbeScore,
    build_weight_table,
    load_probe_scores,
    load_weight_table,
    store_weight_table,
)
from triggercraft.workbench import load_config

LOG_PARSERS = [parse_event_log, parse_verification_log, parse_adjudication_log]
ALL_PARSERS = LOG_PARSERS + [load_trigger_labels, load_dictionary]

lines = st.lists(st.text(max_size=60), max_size=6)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)

# A valid value for each known key, so that records get past their first field.
VALID = {
    "ts": st.just("2019-10-01T12:00:00Z"),
    "media": st.text(max_size=8),
    "progress_s": st.floats(0, 1e4) | st.integers(0, 10_000),
    "speaker": st.sampled_from(["VA1", "VA2"]),
    "replays": st.integers(1, MAX_REPLAYS),
    "hits": st.integers(0, MAX_REPLAYS),
    "led_on_s": st.floats(0, 10),
    "voice_response": st.booleans(),
    "cloud_pattern": st.booleans(),
    "reviewer_a": st.sampled_from(["accidental", "wake-word-present", "related-word"]),
    "reviewer_b": st.sampled_from(["accidental", "wake-word-present", "related-word"]),
}

records = st.fixed_dictionaries(
    {},
    optional={key: valid | json_values for key, valid in VALID.items()},
)


@pytest.mark.parametrize("parse", ALL_PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(text_lines=lines)
@example(text_lines=["1" * 5000])
@example(text_lines=["wake_id\ttrigger_label\ttimes_triggered", "VA1\tx\t" + "1" * 5000])
@example(text_lines=["A(" + "1" * 5000 + ")  AA"])
def test_arbitrary_lines(parse, text_lines):
    try:
        parse(text_lines)
    except TriggerCraftError:
        pass


@pytest.mark.parametrize("parse", LOG_PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(objects=st.lists(records, min_size=1, max_size=3))
@example(objects=[{"ts": 5, "media": "x", "progress_s": 1.0, "speaker": "VA1"}])
@example(objects=[{"ts": "2019-10-01T12:00:00Z", "media": "x", "progress_s": 10**400,
                   "speaker": "VA1", "hits": 0}])
def test_arbitrary_json_objects(parse, objects):
    text = [json.dumps(obj) for obj in objects]
    try:
        parsed = parse(text)
    except TriggerCraftError:
        return
    for item in parsed:
        event = getattr(item, "event", item)
        assert isinstance(event.media_id, str) and isinstance(event.speaker_id, str)
        assert math.isfinite(event.progress_s) and event.progress_s >= 0


# Every JSON type for a field: strings, booleans, integers (also beyond the
# largest double), floats (also -0.0, NaN and the infinities), null, lists
# and objects.
any_json = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8)
    | st.integers() | st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
    | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=4,
)

# Valid values, with the edge cases the contract names: integral floats for
# counts, -0.0 and negative positions, ISO stamps with and without a zone.
FIELD_VALUES = {
    **VALID,
    "ts": st.sampled_from(["2019-10-01T12:00:00Z", "2019-10-01T12:00:00",
                           "2019-10-01 12:00:00+02:00", "2019-13-01T00:00:00Z", "yesterday"]),
    "progress_s": st.floats(-1, 1e4) | st.integers(-1, 10_000) | st.just(-0.0),
    "replays": st.integers(0, MAX_REPLAYS + 1) | st.sampled_from([10.0, 2.5]),
    "hits": st.integers(-1, MAX_REPLAYS) | st.sampled_from([3.0, 2.9]),
    "led_on_s": st.floats(0, 10) | st.integers(0, 5),
}


# Values that sit on a type or range boundary of some field: among them a
# non-ASCII string, and a lone surrogate, which UTF-8 cannot write.
AWKWARD = [True, False, None, -0.0, 0, 1, 2.5, 3.0, 11, -1, "", "1", "\u00e9", "\ud800", [], {},
           math.nan, math.inf, -math.inf, 2**1024, -(10**400)]


@st.composite
def log_lines(draw):
    """A valid record with up to two fields replaced by another JSON value
    or dropped, as one line; sometimes padded, trailed by junk, or not JSON."""
    record = {key: draw(values) for key, values in FIELD_VALUES.items()}
    for key in draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=2)):
        if draw(st.integers(0, 3)):
            record[key] = draw(st.sampled_from(AWKWARD) | any_json)
        else:
            record.pop(key, None)
    line = json.dumps(record)
    return draw(st.sampled_from([line] * 6 + [f"  {line}\t", line + " x", line[:-1], ""])
                 | st.text(max_size=12))


LOG_KINDS = {"events": parse_event_log, "verification": parse_verification_log,
             "adjudication": parse_adjudication_log}


def outcome(parse, lines):
    """The parsed objects, or the error's type, text and line number."""
    try:
        return repr(parse(lines))
    except TriggerCraftError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("kind", LOG_KINDS)
@settings(max_examples=300, deadline=None)
@given(text_lines=st.lists(log_lines(), min_size=1, max_size=4))
@example(text_lines=["", "[" * 100_000])
@example(text_lines=['{"ts": "2019-10-01T12:00:00Z", "progress_s": ' + "1" * 5000 + "}"])
@example(text_lines=["\ufeff{}", '{"a": 1} {"b": 2}', "[]", '"text"'])
def test_logs_read_like_the_reference(kind, text_lines):
    lines = [line + "\n" for line in text_lines]
    assert outcome(LOG_KINDS[kind], lines) == outcome(lambda ls: reference_log(kind, ls), lines)


# Every field of a valid record, in turn, set to each boundary value or dropped.
BASE_RECORD = {"ts": "2019-10-01T12:00:00Z", "media": "m", "progress_s": 5.0, "speaker": "VA1",
               "replays": 10, "hits": 3, "led_on_s": 1.5, "voice_response": False,
               "cloud_pattern": True, "reviewer_a": "accidental", "reviewer_b": "related-word"}
DROPPED = object()


@pytest.mark.parametrize("kind", LOG_KINDS)
def test_each_field_boundary_reads_like_the_reference(kind):
    for key in BASE_RECORD:
        for value in AWKWARD + [DROPPED]:
            record = {k: v for k, v in BASE_RECORD.items() if k != key or value is not DROPPED}
            if value is not DROPPED:
                record[key] = value
            lines = ["\n", json.dumps(record) + "\n"]
            expected = outcome(lambda ls: reference_log(kind, ls), lines)
            assert outcome(LOG_KINDS[kind], lines) == expected, (key, value)


TS = datetime(2019, 10, 1, tzinfo=timezone.utc)


@contextmanager
def harness_warnings():
    """Messages logged by the harness module inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("triggercraft.harness")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def expected_warnings(unverified, orphans):
    return ([f"{unverified} events have no verification record"] if unverified else []) + (
        [f"{orphans} verification/adjudication records match no event"] if orphans else [])


# Few keys, so that most are repeated; 0.0 and -0.0 are one key.
join_keys = st.tuples(st.sampled_from(["VA1", "VA2"]), st.sampled_from(["m"]),
                      st.sampled_from([0.0, -0.0, 1.5]))


@settings(max_examples=200, deadline=None)
@given(event_keys=st.lists(join_keys, max_size=8), ver_keys=st.lists(join_keys, max_size=8),
       adj_keys=st.lists(join_keys, max_size=8))
def test_join_pairs_like_the_reference(event_keys, ver_keys, adj_keys):
    def ev(key):
        speaker, media, progress = key
        return TriggerEvent(TS, media, progress, speaker)

    events = [ev(key) for key in event_keys]
    verifications = [VerificationResult(ev(key), hits=n % 11) for n, key in enumerate(ver_keys)]
    adjudications = [Adjudication(ev(key), "accidental", "related-word") for key in adj_keys]
    joined, unverified, orphans = reference_join(events, verifications, adjudications)
    with harness_warnings() as messages:
        analyses = join_records(events, verifications, adjudications)
    got = [(a.verification, a.adjudication) for a in analyses]
    assert [tuple(map(id, row)) for row in got] == [tuple(map(id, row)) for row in joined]
    assert messages == expected_warnings(unverified, orphans)


words = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ'", min_size=1, max_size=8)
phones = st.lists(st.sampled_from(VOWELS + CONSONANTS), min_size=1, max_size=6).map(tuple)


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(
    words, st.dictionaries(st.integers(1, 4), phones, min_size=1, max_size=3), max_size=8,
))
def test_dictionary_text_load_round_trip(entries):
    # Each word's variants are written in the order drawn, so often out of order.
    text = "".join(f"{word if index == 1 else f'{word}({index})'}  {' '.join(pron)}\n"
                   for word, variants in entries.items() for index, pron in variants.items())
    loaded = load_dictionary(io.StringIO(text))
    assert dictionary_listing(loaded) == [(word, index, pron) for word, variants in entries.items()
                                          for index, pron in sorted(variants.items())]


# ---------------------------------------------------------------------------
# Weight tables, probe scores and the phone inventory.

# Tokens that get lines past each parser's first checks: section headers,
# comments, edit kinds, phone classes, symbols, and numbers of every kind.
TABLE_TOKENS = [
    "[deletion]", "[insertion]", "[substitution]", "[other]", "#", ";;;", "-",
    "delete", "insert", "substitute", "vowel", "consonant", "AH", "S", " S", "",
    "0", "1", "-1", "0.5", "1e308", "-1e308", "5e-324", "1e999", "nan", "inf", "-inf",
    "1_0", "\u0663", "\x00",
]
PROBE_HEADER = "phone\tedit\ttarget\tword\tvoice\tscore_delta"
table_tokens = st.sampled_from(TABLE_TOKENS) | st.text(max_size=6)
table_line = (st.builds("\t".join, st.lists(table_tokens, max_size=7))
              | st.builds(" ".join, st.lists(table_tokens, max_size=3))
              | st.text(max_size=30))
table_lines = st.builds(
    lambda head, body: head + body,
    st.sampled_from([[], [PROBE_HEADER]]),
    st.lists(table_line, max_size=10),
)


@pytest.mark.parametrize("parse", [load_weight_table, load_probe_scores, PhoneInventory.load],
                         ids=lambda f: f.__qualname__)
@settings(max_examples=300, deadline=None)
@given(text_lines=table_lines)
@example(text_lines=["[deletion]", "AA\t1e308", "B\t1e308"])
@example(text_lines=[PROBE_HEADER, "AH\tdelete\t-\tW\t1\t1e999"])
def test_fuzzed_table_lines(parse, text_lines):
    try:
        parse(text_lines)
    except TriggerCraftError:
        pass


@st.composite
def probe_scores(draw):
    """Probe scores over a few phones, each (edit, phone, target, voice) cell once."""
    symbols = draw(st.lists(st.sampled_from(VOWELS + CONSONANTS), min_size=2, max_size=4,
                            unique=True))
    phone = st.sampled_from(symbols)
    # Typical deltas, and any finite ones: tiny, huge and negative (clamped to 0).
    delta = st.floats(0.01, 10.0) | st.floats(allow_nan=False, allow_infinity=False)
    scores = []
    for edit in ("delete", "insert"):
        for p, voice in draw(st.lists(st.tuples(phone, st.integers(1, 3)), min_size=1,
                                      max_size=6, unique=True)):
            scores.append(ProbeScore(p, edit, None, "W", voice, draw(delta)))
    pairs = st.tuples(phone, phone, st.integers(1, 3)).filter(lambda cell: cell[0] != cell[1])
    for p, q, voice in draw(st.lists(pairs, min_size=1, max_size=8, unique=True)):
        scores.append(ProbeScore(p, "substitute", q, "W", voice, draw(delta)))
    return scores


def weight_bits(table):
    """Every entry of a table as the hex of its float, so -0.0 differs from 0.0."""
    sections = (table.deletion, table.insertion, table.substitution)
    return [{key: value.hex() for key, value in section.items()} for section in sections]


@settings(max_examples=300, deadline=None)
@given(scores=probe_scores())
@example(scores=[ProbeScore("AA", "delete", None, "W", v, 1e308) for v in (1, 2)]
         + [ProbeScore("AA", "insert", None, "W", 1, 1.0),
            ProbeScore("AA", "substitute", "B", "W", 1, 1.0)])
@example(scores=[ProbeScore("AA", "delete", None, "W", 1, 5e-324),
                 ProbeScore("B", "delete", None, "W", 1, 1e-323),
                 ProbeScore("AA", "insert", None, "W", 1, 1.0),
                 ProbeScore("AA", "substitute", "B", "W", 1, 1.0)])
def test_built_weight_tables_round_trip_bit_for_bit(scores):
    try:
        table = build_weight_table(scores, [])
    except TriggerCraftError:
        assume(False)  # these scores make no table
    stream = io.StringIO()
    store_weight_table(table, stream)
    loaded = load_weight_table(io.StringIO(stream.getvalue()))
    assert weight_bits(loaded) == weight_bits(table)
    assert loaded.row_phones == table.row_phones


FIXTURES = Path(__file__).parent / "fixtures"

# A valid value for each config entry, with the edge cases the contract
# names: integral floats for counts, ints for scales, the grid presets.
CONFIG_VALUES = {
    "dictionary": st.sampled_from([str(FIXTURES / "mini_dict.txt"), "", "nope.txt"]),
    "out_dir": st.text(max_size=8),
    "top_k": st.integers(1, 500) | st.sampled_from([3.0, 2.9, 0]),
    "seed": st.integers() | st.sampled_from([7.0, 1.5]),
    "scales": st.fixed_dictionaries(
        {axis: st.floats(0, 2) | st.integers(0, 3) | st.sampled_from(AWKWARD) for axis in "sdi"}),
    "grid": st.sampled_from(["default", "extended", "huge"]) | st.fixed_dictionaries(
        {"lo": st.sampled_from([0, 0.25, *AWKWARD]), "hi": st.sampled_from([0.5, 1, *AWKWARD]),
         "step": st.sampled_from([0.25, 0.5, 1e-9, *AWKWARD])}),
    "voices": st.lists(st.fixed_dictionaries(
        {"id": st.text(max_size=3) | st.sampled_from(AWKWARD),
         "kind": st.sampled_from(["standard", "wavenet", 1]), "gender": st.sampled_from("fm")}),
        max_size=10),
    "media_lengths": st.dictionaries(
        st.text(max_size=4), st.floats(-1, 1e4) | st.integers(-1, 9) | st.sampled_from(AWKWARD),
        max_size=3),
}


@pytest.mark.parametrize("key", CONFIG_VALUES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_values_are_read_strictly(tmp_path_factory, key, data):
    raw = {"dictionary": str(FIXTURES / "mini_dict.txt"),
           "wake_words": str(FIXTURES / "wake_words.json"),
           key: data.draw(CONFIG_VALUES[key] | any_json | st.sampled_from(AWKWARD))}
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert type(config.top_k) is int and config.top_k >= 1
    assert type(config.seed) is int
    scales = (config.scales.s, config.scales.d, config.scales.i)
    assert all(type(v) is float and math.isfinite(v) and v >= 0 for v in scales)
    assert config.grid.point_count() <= MAX_GRID_POINTS
    assert all(type(v) is float and math.isfinite(v) and v > 0
               for v in config.media_lengths.values())
    assert all(type(field) is str for voice in config.voices
               for field in (voice.id, voice.kind, voice.gender))
    assert config.dictionary_path.exists() and isinstance(config.out_dir, Path)
    # Nothing is coerced: a number reads back equal to what was written,
    # and no boolean stands in for one.  Null is the same as no entry.
    written = raw[key]
    read_back = {
        "top_k": config.top_k,
        "seed": config.seed,
        "scales": dict(zip("sdi", scales)),
        "grid": {"lo": config.grid.lo, "hi": config.grid.hi, "step": config.grid.step},
        "media_lengths": config.media_lengths,
    }
    if key in read_back and not isinstance(written, (str, type(None))):
        assert read_back[key] == written
        values = written.values() if isinstance(written, dict) else [written]
        assert not any(isinstance(v, bool) for v in values)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-(10**60), 10**60), x=st.floats(allow_nan=False))
def test_text_readers_read_back_what_str_writes(n, x):
    assert text_integer(str(n), "n", signed=True) == n
    assert text_integer(str(abs(n)), "n") == abs(n)
    if n < 0:
        with pytest.raises(ValueError, match="must be an integer"):
            text_integer(str(n), "n")
    assert text_number(repr(x), "x") == x


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=8) | st.from_regex("-?[0-9_]{1,4}(\\.[0-9]*)?", fullmatch=True))
def test_text_readers_accept_only_ascii_without_underscores(text):
    try:
        n = text_integer(text, "n", signed=True)
    except ValueError:
        assert not re.fullmatch("-?[0-9]+", text)
    else:
        assert re.fullmatch("-?[0-9]+", text) and n == int(text)
    try:
        x = text_number(text, "x")
    except ValueError:
        return
    assert text.isascii() and "_" not in text
    assert repr(x) == repr(float(text))
