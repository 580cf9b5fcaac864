"""Every text parser either accepts its input or raises a TriggerCraftError.

Arbitrary lines, and arbitrary JSON objects over the known record keys, go
to each parser; nothing but the package's own errors may come out.
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triggercraft.errors import TriggerCraftError
from triggercraft.harness import (
    MAX_REPLAYS,
    parse_adjudication_log,
    parse_event_log,
    parse_verification_log,
)
from triggercraft.lexicon import (
    CONSONANTS,
    VOWELS,
    Pronunciation,
    PronouncingDictionary,
    load_dictionary,
)
from triggercraft.tuning import load_trigger_labels

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
        event = item[0].event if isinstance(item, tuple) else getattr(item, "event", item)
        assert isinstance(event.media_id, str) and isinstance(event.speaker_id, str)
        assert math.isfinite(event.progress_s) and event.progress_s >= 0


words = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ'", min_size=1, max_size=8)
phones = st.lists(st.sampled_from(VOWELS + CONSONANTS), min_size=1, max_size=6).map(tuple)


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(
    words, st.dictionaries(st.integers(1, 4), phones, min_size=1, max_size=3), max_size=8,
))
def test_dictionary_dump_load_round_trip(entries):
    dictionary = PronouncingDictionary()
    for word, variants in entries.items():
        for index, pron in variants.items():
            dictionary.add(Pronunciation(word, index, pron))
    stream = io.StringIO()
    dictionary.dump(stream)
    loaded = load_dictionary(io.StringIO(stream.getvalue()))

    def listing(d):
        return {w: [(v.variant_index, v.phones) for v in vs] for w, vs in d.items()}

    assert listing(loaded) == listing(dictionary)
