"""Estimate phone-dependent operation weights from acoustic probe scores.

The workflow: for each phone of interest, sample dictionary words containing
it, synthesize original and edited readings with a set of TTS voices, and
have an external acoustic scorer report how much each edit degraded the
wake-word score (one ``score_delta`` per phone/edit/word/voice cell).  This
module turns those deltas into a normalized :class:`WeightTable`: per-phone
means, negatives clamped to zero, deletion and insertion vectors normalized
to mean 1 over their whole domain, and each substitution row normalized to
mean 1 independently.

Probe-score files are tab-separated with a header line::

    phone	edit	target	word	voice	score_delta
    AH	delete	-	ABOUT	3	0.41

``edit`` is ``delete``, ``insert``, or ``substitute``; ``target`` is ``-``
except for substitutions, where it names the replacement phone.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .distance import WeightTable, exact_mean
from .errors import (
    EmptyInput,
    FormatError,
    MissingRow,
    NoQualifyingWords,
    ParseError,
    ZeroMean,
)
from .lexicon import PronouncingDictionary, WakeWordSpec
from .readers import text_integer, text_number, tsv_rows

__all__ = [
    "ProbePlan",
    "ProbeScore",
    "aggregate_weights",
    "build_weight_table",
    "load_probe_scores",
    "load_weight_table",
    "normalize_mean_one",
    "plan_rows",
    "sample_probe_words",
    "store_weight_table",
]

log = logging.getLogger(__name__)

EDIT_KINDS = ("delete", "insert", "substitute")

_SCORE_HEADER = ["phone", "edit", "target", "word", "voice", "score_delta"]
_PLAN_HEADER = ["phone", "edit", "target", "word", "voice"]


@dataclass(frozen=True)
class ProbeScore:
    """One externally measured score delta for a single probe edit."""

    phone: str
    edit: str  # "delete" | "insert" | "substitute"
    target: str | None  # replacement phone for substitutions, else None
    word: str
    voice: int  # numbered from 1, as a probe plan numbers them
    score_delta: float

    def __post_init__(self):
        if self.edit not in EDIT_KINDS:
            raise ValueError(f"unknown edit kind {self.edit!r}")
        if (self.edit == "substitute") != (self.target is not None):
            raise ValueError("substitute scores need a target phone; others must not have one")
        for name, symbol in (("phone", self.phone), ("target", self.target)):
            if symbol is None:
                continue
            if not symbol or symbol != symbol.strip():
                raise ValueError(f"{name} {symbol!r} is empty or padded with whitespace")
            if symbol.startswith("#"):
                # A weight table would read its line as a comment.
                raise ValueError(f"{name} {symbol!r} begins with '#'")
        if self.voice < 1:
            raise ValueError(f"voice {self.voice!r} is below 1")
        if not math.isfinite(self.score_delta):
            raise ValueError(f"score_delta {self.score_delta!r} is not finite")


@dataclass(frozen=True)
class ProbePlan:
    """The sampled words a scorer should probe for one phone."""

    phone: str
    words: tuple[str, ...]
    n_voices: int
    seed: int


def sample_probe_words(
    dictionary: PronouncingDictionary,
    phone: str,
    n_words: int,
    seed: int,
    n_voices: int = 10,
) -> ProbePlan:
    """Uniformly sample words whose pronunciation contains ``phone``.

    Sampling is without replacement and deterministic for a given seed.
    When fewer than ``n_words`` words qualify, all of them are used and a
    diagnostic is logged; zero qualifying words raises
    :class:`NoQualifyingWords`.  ``n_words`` and ``n_voices`` must be >= 1.
    """
    if n_words < 1 or n_voices < 1:
        raise ValueError(f"n_words and n_voices must be >= 1, got {n_words} and {n_voices}")
    columns = dictionary.columns
    codes = columns.codes
    # Each of ``phone``'s codes lies in the last row that starts at or before it.
    hits = np.flatnonzero((np.array(codes.phones, dtype=str) == phone)[codes.codes])
    rows = np.searchsorted(codes.starts, hits, "right") - 1
    qualifying = sorted(columns.words[w] for w in np.unique(columns.word_ids[rows]).tolist())
    if not qualifying:
        raise NoQualifyingWords(f"no dictionary word contains phone {phone!r}")
    if len(qualifying) <= n_words:
        if len(qualifying) < n_words:
            log.warning(
                "only %d of %d requested words contain %r",
                len(qualifying), n_words, phone,
            )
        words = tuple(qualifying)
    else:
        words = tuple(random.Random(seed).sample(qualifying, n_words))
    return ProbePlan(phone=phone, words=words, n_voices=n_voices, seed=seed)


def plan_rows(plan: ProbePlan, inventory_symbols: Iterable[str]) -> list[tuple[str, str, str, str, int]]:
    """Expand a plan into the (phone, edit, target, word, voice) cells to score.

    Substitution cells cover every other inventory phone as the target.
    """
    targets = sorted(s for s in inventory_symbols if s != plan.phone)
    rows = []
    for word in plan.words:
        for voice in range(1, plan.n_voices + 1):
            rows.append((plan.phone, "delete", "-", word, voice))
            rows.append((plan.phone, "insert", "-", word, voice))
            for target in targets:
                rows.append((plan.phone, "substitute", target, word, voice))
    return rows


def load_probe_scores(lines: Iterable[str]) -> list[ProbeScore]:
    """Parse a tab-separated probe-score file (header required).

    A line with an empty or whitespace-padded phone or target, or one that
    begins with ``#``, a voice that is not an integer of ASCII digits from
    1 up (:func:`readers.text_integer`), a score delta that is not a finite
    :func:`readers.text_number`, or a second score for one cell, is a
    :class:`ParseError` naming it.
    """
    scores = []
    first_line: dict[tuple, int] = {}
    for lineno, parts in tsv_rows(lines, _SCORE_HEADER, "probe-score"):
        if len(parts) != 6:
            raise ParseError(f"expected 6 tab-separated fields, got {len(parts)}", lineno)
        phone, edit, target, word, voice, delta = parts
        try:
            score = ProbeScore(
                phone=phone,
                edit=edit,
                target=None if target == "-" else target,
                word=word,
                voice=text_integer(voice, "voice"),
                score_delta=text_number(delta, "score_delta"),
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        cell = (edit, *_cell(score))
        if cell in first_line:
            raise ParseError(f"duplicate probe cell {cell!r}, first on line {first_line[cell]}",
                             lineno)
        first_line[cell] = lineno
        scores.append(score)
    return scores


def _cell(score: ProbeScore) -> tuple:
    return (score.phone, score.target, score.word, score.voice)


def aggregate_weights(scores: Sequence[ProbeScore], kind: str):
    """Per-phone (or per-phone-pair) mean score delta for one edit kind.

    Returns ``{phone: mean}`` for deletions/insertions and
    ``{(phone, target): mean}`` for substitutions.  Negative means are
    clamped to 0 with a diagnostic.  Duplicate (phone, target, word, voice)
    cells and mixed edit kinds raise ``ValueError``; an empty input raises
    :class:`EmptyInput`.
    """
    if kind not in EDIT_KINDS:
        raise ValueError(f"unknown edit kind {kind!r}")
    if not scores:
        raise EmptyInput(f"no {kind} scores to aggregate")
    deltas: dict = {}
    seen: set[tuple] = set()
    for score in scores:
        if score.edit != kind:
            raise ValueError(f"expected only {kind!r} scores, found {score.edit!r}")
        cell = _cell(score)
        if cell in seen:
            raise ValueError(f"duplicate probe cell {cell!r}")
        seen.add(cell)
        key = score.phone if kind != "substitute" else (score.phone, score.target)
        deltas.setdefault(key, []).append(score.score_delta)
    means = {}
    for key, values in deltas.items():
        # fsum is exactly rounded, so the mean is input-order independent.
        mean = exact_mean(values)
        if mean < 0:
            log.warning("clamping negative mean weight %r for %r to 0", mean, key)
            mean = 0.0
        means[key] = mean
    return means


def normalize_mean_one(weights: dict) -> dict:
    """Scale a weight vector so its values average to exactly 1.

    Raises :class:`ZeroMean` when the mean is zero (or :class:`EmptyInput`
    when there is nothing to normalize).
    """
    if not weights:
        raise EmptyInput("no weights to normalize")
    mean = exact_mean(list(weights.values()))
    if mean <= 0:
        raise ZeroMean(f"cannot normalize weights with mean {mean!r}")
    return {key: value / mean for key, value in weights.items()}


def build_weight_table(
    scores: Sequence[ProbeScore],
    wake_words: Sequence[WakeWordSpec],
) -> WeightTable:
    """Aggregate and normalize probe scores into a full weight table.

    Deletion and substitution coverage is checked against every phone that
    occurs in ``wake_words`` (:class:`MissingRow` lists any gaps).  The
    deletion and insertion vectors are normalized over their whole domain;
    each substitution row is normalized independently over its columns.
    Diagonal substitution scores are dropped: substituting a phone with
    itself is a match, not an edit.  A table that fails
    :meth:`WeightTable.validate` raises its :class:`FormatError`.
    """
    by_kind: dict[str, list[ProbeScore]] = {kind: [] for kind in EDIT_KINDS}
    dropped_diagonal = 0
    for score in scores:
        if score.edit == "substitute" and score.target == score.phone:
            dropped_diagonal += 1
            continue
        by_kind[score.edit].append(score)
    if dropped_diagonal:
        log.warning("dropped %d diagonal substitution scores", dropped_diagonal)

    raw_del = aggregate_weights(by_kind["delete"], "delete")
    raw_ins = aggregate_weights(by_kind["insert"], "insert")
    raw_sub = aggregate_weights(by_kind["substitute"], "substitute")

    wake_phones = sorted({p for w in wake_words for p in w.phones})
    missing = [p for p in wake_phones if p not in raw_del]
    missing += [p for p in wake_phones if p not in {row for row, _ in raw_sub}]
    if missing:
        uncovered = sorted(set(missing))
        raise MissingRow(f"probe scores do not cover wake-word phones: {uncovered}", uncovered)

    rows: dict[str, dict[str, float]] = {}
    for (row, col), value in raw_sub.items():
        rows.setdefault(row, {})[col] = value
    substitution = {(row, col): value for row, cols in rows.items()
                    for col, value in normalize_mean_one(cols).items()}

    table = WeightTable(
        deletion=normalize_mean_one(raw_del),
        insertion=normalize_mean_one(raw_ins),
        substitution=substitution,
        row_phones=frozenset(rows),
    )
    # Means of tiny deltas can lose the precision to normalize them to 1.
    table.validate()
    return table


def _format_weight(value: float) -> str:
    # 17 significant digits: enough for an exact float round trip.
    return f"{value:.17g}"


def store_weight_table(table: WeightTable, stream: IO[str]) -> None:
    """Write a weight table in its sectioned tab-separated format."""
    stream.write("[deletion]\n")
    for phone in sorted(table.deletion):
        stream.write(f"{phone}\t{_format_weight(table.deletion[phone])}\n")
    stream.write("[insertion]\n")
    for phone in sorted(table.insertion):
        stream.write(f"{phone}\t{_format_weight(table.insertion[phone])}\n")
    stream.write("[substitution]\n")
    for row, col in sorted(table.substitution):
        stream.write(f"{row}\t{col}\t{_format_weight(table.substitution[(row, col)])}\n")


def load_weight_table(lines: Iterable[str]) -> WeightTable:
    """Parse a stored weight table and check its invariants.

    Structural problems, a weight that is not a :func:`readers.text_number`,
    and invariant violations (negative weights, a section mean drifting
    from 1.0) raise :class:`FormatError`.
    """
    deletion: dict[str, float] = {}
    insertion: dict[str, float] = {}
    substitution: dict[tuple[str, str], float] = {}
    section: str | None = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("deletion", "insertion", "substitution"):
                raise FormatError(f"line {lineno}: unknown section {line!r}")
            continue
        if section is None:
            raise FormatError(f"line {lineno}: data before any section header")
        parts = line.split("\t")
        try:
            if section == "substitution":
                if len(parts) != 3:
                    raise FormatError(
                        f"line {lineno}: substitution rows need 'ROW<TAB>COL<TAB>weight'"
                    )
                key = (parts[0], parts[1])
                target = substitution
                value = text_number(parts[2], "weight")
            else:
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: {section} rows need 'PHONE<TAB>weight'")
                key = parts[0]
                target = deletion if section == "deletion" else insertion
                value = text_number(parts[1], "weight")
        except ValueError:
            raise FormatError(f"line {lineno}: bad weight value in {line!r}") from None
        if key in target:
            raise FormatError(f"line {lineno}: duplicate {section} entry {key!r}")
        target[key] = value
    table = WeightTable(
        deletion=deletion,
        insertion=insertion,
        substitution=substitution,
        row_phones=frozenset(row for row, _ in substitution),
    )
    table.validate()
    return table
