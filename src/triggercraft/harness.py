"""Bookkeeping for smart-speaker measurement runs.

A measurement rig plays media at a set of smart speakers and logs every
activation as a JSON-lines event.  Each event is then verified by replaying
a short window around the trigger position, classified by how far the
activation went (local detection only vs. audio leaving for the cloud), and
adjudicated by two human reviewers who decide whether the trigger was
accidental.  This module parses those logs and computes the derived
quantities: replay windows, reproducibility bins, activation classes,
adjudication resolutions, inter-rater agreement (Cohen's kappa), and the
summary file with its per-speaker/per-media tables and replay windows.

Event records look like::

    {"ts": "2019-10-01T12:00:00Z", "media": "show_a_e01", "progress_s": 100.0, "speaker": "VA1"}

A verification record adds ``replays``/``hits`` and, optionally, the
activation signals seen during the replays; it parses to one
:class:`VerificationResult`.  An adjudication record adds
``reviewer_a``/``reviewer_b``.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EventBeyondMedia,
    LengthMismatch,
    NegativeProgress,
    OutOfRange,
    ParseError,
)
from .errors import EmptyInput
from .readers import finite_number, string, whole_number

__all__ = [
    "Adjudication",
    "Summary",
    "TriggerAnalysis",
    "TriggerEvent",
    "VerificationResult",
    "adjudicate",
    "bin_reproducibility",
    "classify_activation",
    "cohens_kappa",
    "format_summary",
    "join_records",
    "parse_adjudication_log",
    "parse_event_log",
    "parse_verification_log",
    "summarize",
    "verification_window",
]

log = logging.getLogger(__name__)

# Replay window: rewind this far before the trigger position ...
WINDOW_BEFORE_S = 7.0
# ... and keep playing this far past it.
WINDOW_AFTER_S = 3.0

# Reproducibility bins are defined on 0..MAX_REPLAYS hits.
MAX_REPLAYS = 10

REVIEW_LABELS = ("accidental", "wake-word-present", "related-word")
BINS = ("none", "low", "medium", "high")


@dataclass(frozen=True, slots=True)
class TriggerEvent:
    """One logged activation of a smart speaker during playback."""

    timestamp: datetime
    media_id: str
    progress_s: float
    speaker_id: str


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """Replay outcome for one event: how often the trigger reproduced, and
    the signals that show whether its audio reached the cloud."""

    event: TriggerEvent
    replays: int = MAX_REPLAYS
    hits: int = 0
    led_on_s: float = 0.0
    voice_response: bool = False
    pattern_cloud_signal: bool = False

    def __post_init__(self):
        if type(self.replays) is not int or type(self.hits) is not int:  # bool is not a count
            raise ValueError(f"replays={self.replays!r} and hits={self.hits!r} must be ints")
        if not 1 <= self.replays <= MAX_REPLAYS:
            raise ValueError(f"replays={self.replays} outside 1..{MAX_REPLAYS}")
        if not 0 <= self.hits <= self.replays:
            raise ValueError(f"hits={self.hits} outside 0..{self.replays}")


@dataclass(frozen=True, slots=True)
class Adjudication:
    """Two independent reviewer labels for one event."""

    event: TriggerEvent
    reviewer_a: str
    reviewer_b: str

    def __post_init__(self):
        for label in (self.reviewer_a, self.reviewer_b):
            if label not in REVIEW_LABELS:
                raise ValueError(f"unknown review label {label!r}")


# The C scanner behind ``json.loads``, without its per-call Python wrapper.
_scan_json = json.decoder.JSONDecoder().scan_once


def _decode_slowly(line, lineno: int):
    """``json.loads(line)``, its errors as a ParseError on ``lineno``."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long integer, deep nesting
        raise ParseError(f"bad JSON: {exc}", lineno) from None


def _json_records(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for every non-blank line.

    A line is one JSON value exactly as ``json.loads`` reads it: the scanner
    must consume the whole stripped line, and anything it rejects (or a
    ``bytes`` line) goes through ``json.loads`` itself for the value or the
    error text.
    """
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            record, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError, TypeError):
            end = -1
        if end != len(line):
            record = _decode_slowly(line, lineno)
        if type(record) is not dict:
            raise ParseError(f"expected a JSON object, got {line[:40]!r}", lineno)
        yield lineno, record


def _parse_event_fields(record: dict, lineno: int) -> TriggerEvent:
    # Values of the common exact JSON types pass inline; anything else goes
    # to the checking helper, which converts it or raises its message.
    # ``x - x`` is 0.0 for a finite float only (inf and NaN give NaN).  An
    # ASCII string always encodes as UTF-8, and ``isascii`` reads a flag,
    # so only a non-ASCII media or speaker pays for the helper's encode.
    try:
        ts = record["ts"]
        if type(ts) is not str:
            ts = string(ts, "ts")
        timestamp = datetime.fromisoformat(ts.replace("Z", "+00:00"))
        media_id = record["media"]
        if type(media_id) is not str or not media_id.isascii():
            media_id = string(media_id, "media")
        progress = record["progress_s"]
        if type(progress) is not float or progress - progress != 0.0:
            progress = finite_number(progress, "progress_s")
        speaker = record["speaker"]
        if type(speaker) is not str or not speaker.isascii():
            speaker = string(speaker, "speaker")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad event record: {exc!r}", lineno) from None
    if progress < 0:
        raise NegativeProgress(f"line {lineno}: negative playback position {progress!r}")
    return TriggerEvent(timestamp, media_id, progress, speaker)


def parse_event_log(lines: Iterable[str]) -> list[TriggerEvent]:
    """Parse a JSON-lines event log; unknown keys are ignored."""
    return [_parse_event_fields(record, lineno) for lineno, record in _json_records(lines)]


def _flag(record: dict, key: str) -> bool:
    """A JSON boolean, false when the key is absent; nothing else."""
    value = record.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def parse_verification_log(lines: Iterable[str]) -> list[VerificationResult]:
    """Parse verification records (event fields + replays/hits + signals)."""
    out = []
    for lineno, record in _json_records(lines):
        event = _parse_event_fields(record, lineno)
        try:
            replays = record.get("replays", MAX_REPLAYS)
            if type(replays) is not int:
                replays = whole_number(replays, "replays")
            hits = record["hits"]
            if type(hits) is not int:
                hits = whole_number(hits, "hits")
            try:
                led_on = record.get("led_on_s", 0.0)
                if type(led_on) is not float or led_on - led_on != 0.0:
                    led_on = finite_number(led_on, "led_on_s")
                voice = record.get("voice_response", False)
                if type(voice) is not bool:
                    voice = _flag(record, "voice_response")
                cloud = record.get("cloud_pattern", False)
                if type(cloud) is not bool:
                    cloud = _flag(record, "cloud_pattern")
            except ValueError:
                VerificationResult(event, replays, hits)  # a bad count is reported first
                raise
            out.append(VerificationResult(event, replays, hits, led_on, voice, cloud))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad verification record: {exc!r}", lineno) from None
    return out


def parse_adjudication_log(lines: Iterable[str]) -> list[Adjudication]:
    """Parse adjudication records (event fields + two reviewer labels)."""
    out = []
    for lineno, record in _json_records(lines):
        event = _parse_event_fields(record, lineno)
        try:
            out.append(Adjudication(event, record["reviewer_a"], record["reviewer_b"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad adjudication record: {exc!r}", lineno) from None
    return out


def verification_window(event: TriggerEvent, media_len_s: float) -> tuple[float, float]:
    """Replay window around a trigger, clamped to the media bounds.

    The window rewinds :data:`WINDOW_BEFORE_S` seconds before the logged
    position and runs :data:`WINDOW_AFTER_S` seconds past it.
    """
    if media_len_s <= 0:
        raise ValueError(f"media length must be positive, got {media_len_s!r}")
    if event.progress_s > media_len_s:
        raise EventBeyondMedia(
            f"event of speaker {event.speaker_id!r} on media {event.media_id!r} at "
            f"{event.progress_s}s lies past media end ({media_len_s}s)"
        )
    start = max(0.0, event.progress_s - WINDOW_BEFORE_S)
    end = min(media_len_s, event.progress_s + WINDOW_AFTER_S)
    return (start, end)


def bin_reproducibility(hits: int) -> str:
    """Map a 0-10 replay hit count to its reproducibility bin."""
    if type(hits) is not int or not 0 <= hits <= MAX_REPLAYS:
        raise OutOfRange(f"hit count {hits!r} outside 0..{MAX_REPLAYS}")
    if hits == 0:
        return "none"
    if hits <= 3:
        return "low"
    if hits <= 7:
        return "medium"
    return "high"


def classify_activation(result: VerificationResult, threshold_s: float = 2.0) -> str:
    """Conservatively decide whether audio reached the vendor cloud.

    A long activation light (at least ``threshold_s`` seconds), a voice
    response, or a known cloud-signal light pattern all count as evidence
    that audio was sent on; anything shorter stays ``"local"``.
    """
    if result.led_on_s >= threshold_s or result.voice_response or result.pattern_cloud_signal:
        return "local_plus_cloud"
    return "local"


def adjudicate(reviewer_a: str, reviewer_b: str) -> str:
    """Combine two reviewer labels into a resolution.

    Accidental only when both reviewers say accidental; discarded when both
    found the wake word (or a closely related word) in the audio; any
    disagreement goes back for review.
    """
    for label in (reviewer_a, reviewer_b):
        if label not in REVIEW_LABELS:
            raise ValueError(f"unknown review label {label!r}")
    a_accidental = reviewer_a == "accidental"
    b_accidental = reviewer_b == "accidental"
    if a_accidental and b_accidental:
        return "accidental"
    if not a_accidental and not b_accidental:
        return "discarded"
    return "needs-review"


def cohens_kappa(a: Sequence[str], b: Sequence[str]) -> float:
    """Chance-corrected agreement between two raters over the same items.

    ``(p_o - p_e) / (1 - p_e)`` with observed agreement ``p_o`` and the
    marginal chance agreement ``p_e``.  When both raters used one identical
    label throughout (``p_e == 1``), agreement is perfect and the value is
    1.0 by continuity.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"rating lists differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise EmptyInput("no ratings to compare")
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    counts_a = Counter(a)
    counts_b = Counter(b)
    expected = math.fsum(
        (counts_a[label] / n) * (counts_b[label] / n) for label in counts_a
    )
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


@dataclass(slots=True)
class TriggerAnalysis:
    """Everything known about one verified trigger."""

    verification: VerificationResult
    adjudication: Adjudication | None = None


def _queues(keyed: Iterable[tuple[TriggerEvent, object]]) -> tuple[dict, dict]:
    """Records by join key, from (event, record) pairs in log order.

    Returns the first record of every key, and the later records of each
    repeated key, last first, so that ``pop()`` hands them out in order.
    A key seen once (nearly every key) gets no list of its own.
    """
    first: dict[tuple, object] = {}
    later: dict[tuple, list] = {}
    for event, record in keyed:
        key = (event.speaker_id, event.media_id, event.progress_s)
        if key in first:
            later.setdefault(key, []).append(record)
        else:
            first[key] = record
    for queue in later.values():
        queue.reverse()
    return first, later


def join_records(
    events: Sequence[TriggerEvent],
    verifications: Sequence[VerificationResult],
    adjudications: Sequence[Adjudication],
) -> list[TriggerAnalysis]:
    """Join the three logs on (speaker, media, position).

    Events without a verification record are skipped with a diagnostic;
    verification or adjudication records without a matching event are
    reported the same way.  Records that share a key pair up in log order:
    the i-th event of a key gets that key's i-th record.
    """
    ver_first, ver_later = _queues((ver.event, ver) for ver in verifications)
    adj_first, adj_later = _queues((adj.event, adj) for adj in adjudications)
    analyses = []
    unverified = 0
    for event in events:
        key = (event.speaker_id, event.media_id, event.progress_s)
        verification = ver_first.pop(key, None)
        if verification is None:
            unverified += 1
            continue
        queue = ver_later.get(key)
        if queue:
            ver_first[key] = queue.pop()
        adjudication = adj_first.pop(key, None)
        queue = adj_later.get(key)
        if queue:
            adj_first[key] = queue.pop()
        analyses.append(TriggerAnalysis(verification, adjudication))
    if unverified:
        log.warning("%d events have no verification record", unverified)
    orphans = (len(ver_first) + sum(map(len, ver_later.values()))
               + len(adj_first) + sum(map(len, adj_later.values())))
    if orphans:
        log.warning("%d verification/adjudication records match no event", orphans)
    return analyses


@dataclass
class Summary:
    """Aggregated measurement outcomes.

    ``counts`` maps (media_id, speaker_id) to [accidental, discarded,
    needs_review]; ``bins`` and ``activation`` aggregate per speaker.
    ``windows`` holds a (media_id, speaker_id, progress_s, start_s, end_s)
    row for every event whose media has a length, in analysis order; it is
    None when no lengths were given.  A row holds strings and floats only,
    not the event, so the garbage collector stops tracking it; 100k rows
    that held events would add full collections to a large run.
    """

    counts: dict[tuple[str, str], list[int]]
    bins: dict[str, dict[str, int]]
    activation: dict[str, dict[str, int]]
    kappa: float | None = None
    windows: list[tuple[str, str, float, float, float]] | None = None


def summarize(
    analyses: Sequence[TriggerAnalysis],
    media_lengths: Mapping[str, float] | None = None,
) -> Summary:
    """Fold analyses into the per-media/per-speaker summary.

    With ``media_lengths``, every event also gets its replay window; an
    event whose media has no length is left out, with one warning per media.
    """
    counts: dict[tuple[str, str], list[int]] = {}
    bins: dict[str, dict[str, int]] = {}
    activation: dict[str, dict[str, int]] = {}
    slot = {"accidental": 0, "discarded": 1, "needs-review": 2}
    # The row slot of every label pair, and the bin of every hit count.
    slot_of = {a: {b: slot[adjudicate(a, b)] for b in REVIEW_LABELS} for a in REVIEW_LABELS}
    bin_of = [bin_reproducibility(hits) for hits in range(MAX_REPLAYS + 1)]
    labels_a: list[str] = []
    labels_b: list[str] = []
    windows = [] if media_lengths else None
    unknown: dict[str, int] = {}  # media id -> events without a length
    for analysis in analyses:
        verification = analysis.verification
        event = verification.event
        speaker = event.speaker_id
        media_id = event.media_id
        key = (media_id, speaker)
        row = counts.get(key)
        if row is None:
            row = counts[key] = [0, 0, 0]
        adjudication = analysis.adjudication
        if adjudication is not None:
            a, b = adjudication.reviewer_a, adjudication.reviewer_b
            row[slot_of[a][b]] += 1
            labels_a.append(a)
            labels_b.append(b)
        else:
            row[2] += 1
        speaker_bins = bins.get(speaker)
        if speaker_bins is None:
            speaker_bins = bins[speaker] = dict.fromkeys(BINS, 0)
        speaker_bins[bin_of[verification.hits]] += 1
        speaker_act = activation.get(speaker)
        if speaker_act is None:
            speaker_act = activation[speaker] = {"local": 0, "local_plus_cloud": 0}
        speaker_act[classify_activation(verification)] += 1
        if windows is not None:
            length = media_lengths.get(media_id)
            if length is None:
                unknown[media_id] = unknown.get(media_id, 0) + 1
            else:
                start, end = verification_window(event, length)
                windows.append((media_id, speaker, event.progress_s, start, end))
    for media_id, count in unknown.items():
        log.warning("no media length configured for %r (%d events)", media_id, count)
    kappa = cohens_kappa(labels_a, labels_b) if labels_a else None
    return Summary(counts, bins, activation, kappa, windows)


def format_summary(summary: Summary) -> str:
    """Render a summary as sectioned tab-separated text.

    The [counts] section mirrors the usual prevalence table: one row per
    (media, speaker) with accidental (A) and wake-word/discarded (W)
    columns, plus the still-unreviewed count.  The [windows] section, when
    the summary has windows, writes each number to 12 significant digits.
    """
    lines = ["[counts]", "media\tspeaker\tA\tW\tneeds_review"]
    totals: dict[str, list[int]] = {}
    for (media_id, speaker_id) in sorted(summary.counts):
        row = summary.counts[(media_id, speaker_id)]
        lines.append(f"{media_id}\t{speaker_id}\t{row[0]}\t{row[1]}\t{row[2]}")
        total = totals.setdefault(speaker_id, [0, 0, 0])
        for idx in range(3):
            total[idx] += row[idx]
    for speaker_id in sorted(totals):
        row = totals[speaker_id]
        lines.append(f"ALL\t{speaker_id}\t{row[0]}\t{row[1]}\t{row[2]}")
    lines.append("[reproducibility]")
    lines.append("speaker\t" + "\t".join(BINS))
    for speaker_id in sorted(summary.bins):
        speaker_bins = summary.bins[speaker_id]
        lines.append(
            speaker_id + "\t" + "\t".join(str(speaker_bins[b]) for b in BINS)
        )
    lines.append("[activation]")
    lines.append("speaker\tlocal\tlocal_plus_cloud")
    for speaker_id in sorted(summary.activation):
        act = summary.activation[speaker_id]
        lines.append(f"{speaker_id}\t{act['local']}\t{act['local_plus_cloud']}")
    if summary.kappa is not None:
        lines.append("[agreement]")
        lines.append(f"cohens_kappa\t{summary.kappa:.6f}")
    if summary.windows is not None:
        lines.append("[windows]")
        lines.append("media\tspeaker\tprogress_s\tstart_s\tend_s")
        for media_id, speaker_id, progress, start, end in summary.windows:
            lines.append(f"{media_id}\t{speaker_id}\t{progress:.12g}\t{start:.12g}\t{end:.12g}")
    return "\n".join(lines) + "\n"
