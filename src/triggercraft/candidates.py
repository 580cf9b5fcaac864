"""Candidate generation, ranking, and synthesis-manifest export.

Candidates come from two sources: whole dictionary words, and 1/2/3-grams
pulled from subtitle-style transcripts.  Ranking computes each candidate's
distance to a wake word and keeps the top K, with a seeded draw to resolve
candidates tied at the cut-off so the list size is exact and reproducible.
A :class:`Vocabulary` keeps its candidates as columns, built once and read
by every ranking and tuning pass against it.  Both sources are dictionary
rows: a word's own, or a phrase's (an n-gram or a trigger phrase) joined
from its words' rows by :func:`~triggercraft.lexicon.join_rows`.  The
synthesis manifest is plain rows, one per (candidate, voice).
"""

from __future__ import annotations

import logging
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .distance import CostContext, CostModel, DistanceBreakdown, distance_to_wakeword
from .errors import ConfigError, EmptyVocabulary, OutOfVocabulary
from .lexicon import (
    PhoneCodes,
    PhoneSeq,
    PronouncingDictionary,
    WakeWordSpec,
    join_rows,
    normalize_word,
)

__all__ = [
    "Candidate",
    "DEFAULT_VOICES",
    "RankedItem",
    "RankedList",
    "Vocabulary",
    "Voice",
    "blocked_labels",
    "build_blocklist",
    "dictionary_candidates",
    "export_manifest",
    "extract_ngrams",
    "rank_candidates",
]

log = logging.getLogger(__name__)

_TOKEN_PATTERN = re.compile(r"[a-z']+")
_SLUG_PATTERN = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class Candidate:
    """A rankable phrase: its display label and pronunciation variants."""

    label: str
    prons: tuple[PhoneSeq, ...]
    source: str = "dictionary"  # "dictionary" or "<n>-gram"
    count: int = 1  # occurrences in the source corpus

    def __post_init__(self):
        if not self.prons:
            raise ValueError(f"candidate {self.label!r} has no pronunciations")


def normalize_label(label: str) -> str:
    return " ".join(label.lower().split())


class Vocabulary(Sequence):
    """An immutable sequence of candidates, kept as columns for ranking.

    ``labels`` and ``normalized_labels`` hold each candidate's label and
    its :func:`normalize_label`, and ``codes`` one
    :class:`~triggercraft.lexicon.PhoneCodes` of all the pronunciations.
    Candidates given as objects are kept; any other :class:`Candidate` is
    built from the columns, with its source and count, when first
    accessed, then kept, so a ranking builds only those it lists.
    """

    __slots__ = ("labels", "normalized_labels", "codes", "_items")

    def __init__(self, candidates: Iterable[Candidate]):
        self._items = list(candidates)
        self.labels = tuple(c.label for c in self._items)
        self.normalized_labels = _normalized(self.labels)
        self.codes = PhoneCodes([c.prons for c in self._items])

    @classmethod
    def from_dictionary(cls, dictionary: PronouncingDictionary,
                        triggers: Iterable[str] = ()) -> "Vocabulary":
        """One candidate per dictionary word, labelled in lower case, with all its
        variants; then, with source ``"trigger"``, each new normalized label of
        ``triggers``: its words' rows joined (:func:`~triggercraft.lexicon.join_rows`).
        A phrase word without an entry raises :class:`OutOfVocabulary`."""
        codes = dictionary.codes
        labels = tuple(word.lower() for word in dictionary.words)
        normalized = _normalized(labels)
        phrases = dict.fromkeys(map(normalize_label, triggers))
        known = set(normalized) if phrases else ()
        phrases = tuple(t for t in phrases if t not in known)
        if phrases:
            ids = dictionary.ids
            for label in phrases:
                for word in label.split():
                    if normalize_word(word) not in ids:
                        raise OutOfVocabulary(f"no pronunciation for {word!r} in phrase {label!r}")
            words = [[ids[normalize_word(word)] for word in label.split()] for label in phrases]
            columns = zip((codes.counts, codes.lengths, codes.codes), join_rows(codes, words))
            codes = PhoneCodes.from_columns(codes.phones, *map(np.concatenate, columns))
        items = [("dictionary", 1)] * len(labels) + [("trigger", 1)] * len(phrases)
        return cls._of_columns(labels + phrases, normalized + phrases, items, codes)

    @classmethod
    def _of_columns(cls, labels, normalized, items, codes: PhoneCodes) -> "Vocabulary":
        vocab = cls.__new__(cls)  # ``items``: a (source, count) pair per candidate not built
        vocab.labels, vocab.normalized_labels = labels, normalized
        vocab._items, vocab.codes = items, codes
        return vocab

    @classmethod
    def of(cls, vocab: Iterable[Candidate]) -> "Vocabulary":
        """``vocab`` itself if it is a vocabulary, else a new one holding it."""
        return vocab if isinstance(vocab, cls) else cls(vocab)

    def keep_mask(self, wake: WakeWordSpec, blocklist: Iterable[str] = ()) -> np.ndarray:
        """Whether each candidate's label is outside ``wake``'s :func:`blocked_labels`."""
        blocked = blocked_labels(wake, blocklist)
        return np.fromiter((label not in blocked for label in self.normalized_labels),
                           dtype=bool, count=len(self))

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        item = self._items[index]
        if isinstance(item, tuple):  # not built yet: its source and count
            index = range(len(self))[index]
            prons = self.codes.decode(index)
            item = self._items[index] = Candidate(self.labels[index], prons, *item)
        return item


def _normalized(labels: tuple[str, ...]) -> tuple[str, ...]:
    # Most labels are normalized already: keep one string for those, and
    # ``labels`` itself when all are.
    normalized = tuple(label if norm == label else norm
                       for label, norm in zip(labels, map(normalize_label, labels)))
    return labels if normalized == labels else normalized


def dictionary_candidates(dictionary: PronouncingDictionary) -> list[Candidate]:
    """One candidate per dictionary word, with all its variants."""
    # Kept since perfbench/tracing.py, its only non-test caller, wraps it.
    return list(Vocabulary.from_dictionary(dictionary))


def blocked_labels(wake: WakeWordSpec, extra: Iterable[str] = ()) -> set[str]:
    """The wake word's own text, its explicit blocklist and ``extra``, normalized."""
    return {normalize_label(b) for b in (wake.text, *wake.explicit_blocklist, *extra)}


def build_blocklist(
    wake: WakeWordSpec,
    dictionary: PronouncingDictionary,
) -> set[str]:
    """Labels that must never appear in a ranked list for ``wake``.

    The wake word's own text and its explicitly configured labels are
    always blocked, plus every dictionary word with a pronunciation that is
    a contiguous run of the wake word's phones (such words are the wake
    word, or a piece of it, by sound).  The pieces of each length m are
    encoded and compared with the ``(m, batch)`` block of the length-m
    pronunciations in :attr:`~triggercraft.lexicon.PhoneCodes.groups`; a
    piece holding a phone the dictionary never uses matches nothing.
    """
    blocked = blocked_labels(wake)
    codes = dictionary.codes
    code_of = {symbol: code for code, symbol in enumerate(codes.phones)}
    wake_codes = [code_of.get(p) for p in wake.phones]
    n = len(wake_codes)
    hit = np.zeros(len(codes.lengths), dtype=bool)
    for rows, block in codes.groups:
        m = len(block)
        for piece in {tuple(wake_codes[i : i + m]) for i in range(n - m + 1)}:
            if None not in piece:
                match = np.logical_and.reduce([row == code for row, code in zip(block, piece)])
                hit[rows[match]] = True
    for word_id in set(dictionary.word_ids[hit].tolist()):
        blocked.add(normalize_label(dictionary.words[word_id]))
    return blocked


@dataclass(frozen=True)
class RankedItem:
    rank: int
    candidate: Candidate
    distance: float
    breakdown: DistanceBreakdown


@dataclass
class RankedList:
    """Top-K candidates for one wake word under one model."""

    wake: WakeWordSpec
    model: CostModel
    k: int
    seed: int
    items: list[RankedItem]
    boundary_pool_size: int


def rank_candidates(
    vocab: Sequence[Candidate],
    wake: WakeWordSpec,
    model: CostModel,
    k: int,
    seed: int,
    blocklist: Iterable[str] = (),
) -> RankedList:
    """The K nearest candidates to ``wake``, deterministically.

    Candidates whose cost is strictly below the K-th smallest make the list
    outright; the remaining slots are filled by a seeded uniform draw
    (without replacement) from the candidates tied exactly at that boundary
    cost.  ``boundary_pool_size`` records the size of the tie pool a random
    draw selected from, and is 0 whenever no randomness was involved (list
    not truncated, or the boundary ties exactly fill the open slots).
    Output is byte-stable for a given seed, and lists produced with
    different seeds can differ only inside the tie pool.  One kernel pass
    prices every pronunciation; a listed candidate's breakdown is that of
    :func:`distance_to_wakeword` over its variant with the first smallest
    ``L`` in that pass, which is the variant it picks from all of them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vocab = Vocabulary.of(vocab)
    keep = vocab.keep_mask(wake, blocklist)
    kept = np.flatnonzero(keep)
    if not len(kept):
        raise EmptyVocabulary(f"no candidates left for {wake.id!r} after blocklist filtering")

    # Indices below run over the kept candidates, in vocabulary order.
    row_costs = CostContext(wake.phones, model).row_costs(vocab.codes, keep)
    first = vocab.codes.first
    costs = np.minimum.reduceat(row_costs, first[:-1])[kept]

    def by_cost(idx: int) -> tuple:
        return (costs[idx], vocab.labels[kept[idx]], idx)

    # Only candidates at or below the K-th smallest cost can be listed; with
    # K or fewer candidates that boundary is the largest cost, so all are.
    cut = min(k, len(kept)) - 1
    boundary = np.partition(costs, cut)[cut]
    order = sorted(np.flatnonzero(costs <= boundary).tolist(), key=by_cost)
    below = [idx for idx in order if costs[idx] < boundary]
    pool = [idx for idx in order if costs[idx] == boundary]
    slots = k - len(below)
    if slots >= len(pool):
        pool_size = 0
        selected = below + pool
    else:
        pool_size = len(pool)
        selected = below + sorted(random.Random(seed).sample(pool, slots), key=by_cost)

    items = []
    for position, idx in enumerate(selected, 1):
        index = kept[idx]
        cand = vocab[index]
        # The variant distance_to_wakeword would pick: the first with the smallest L.
        variant = np.argmin(row_costs[first[index] : first[index + 1]] / len(wake.phones))
        breakdown = distance_to_wakeword(wake, (cand.prons[variant],), model)
        items.append(RankedItem(position, cand, breakdown.L, breakdown))
    return RankedList(
        wake=wake, model=model, k=k, seed=seed, items=items,
        boundary_pool_size=pool_size,
    )


def extract_ngrams(
    transcripts: Iterable[str],
    n: int,
    dictionary: PronouncingDictionary,
) -> Vocabulary:
    """Sliding-window n-grams from transcript lines, as a vocabulary.

    Windows never cross line boundaries.  Tokens are lowercased with
    punctuation stripped; duplicate n-grams are merged and counted, and
    kept in order of first appearance.  N-grams containing an
    out-of-vocabulary word are dropped (a diagnostic reports how many).
    An n-gram's pronunciations are its words' dictionary rows joined
    (:func:`~triggercraft.lexicon.join_rows`); its :class:`Candidate`, with
    source ``"<n>-gram"`` and its count, is built only when read.
    """
    if isinstance(n, bool) or n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2, or 3, got {n}")
    counts: dict[str, int] = {}
    tokens_seen: set[str] = set()
    for line in transcripts:
        tokens = [t for t in _TOKEN_PATTERN.findall(line.lower()) if t.strip("'")]
        tokens_seen.update(tokens)
        for start in range(len(tokens) - n + 1):
            label = " ".join(tokens[start : start + n])
            counts[label] = counts.get(label, 0) + 1
    ids = dictionary.ids
    word_id = {token: ids.get(normalize_word(token)) for token in tokens_seen}  # None: OOV
    phrases = {label: [word_id[token] for token in label.split()] for label in counts}
    phrases = {label: words for label, words in phrases.items() if None not in words}
    if len(phrases) < len(counts):
        log.warning("dropped %d out-of-vocabulary %d-grams", len(counts) - len(phrases), n)
    codes, labels = dictionary.codes, tuple(phrases)  # labels are normalized already
    stubs = {count: (f"{n}-gram", count) for count in set(counts.values())}  # one per count
    items = [stubs[counts[label]] for label in labels]
    joined = PhoneCodes.from_columns(codes.phones, *join_rows(codes, phrases.values()))
    return Vocabulary._of_columns(labels, labels, items, joined)


@dataclass(frozen=True)
class Voice:
    """One TTS voice in the synthesis pool."""

    id: str
    kind: str  # "standard" | "wavenet"
    gender: str  # "f" | "m"


DEFAULT_VOICES = (
    Voice("standard-a", "standard", "f"),
    Voice("standard-b", "standard", "m"),
    Voice("standard-c", "standard", "f"),
    Voice("standard-d", "standard", "m"),
    Voice("wavenet-a", "wavenet", "f"),
    Voice("wavenet-b", "wavenet", "m"),
    Voice("wavenet-c", "wavenet", "f"),
    Voice("wavenet-d", "wavenet", "m"),
    Voice("wavenet-e", "wavenet", "f"),
    Voice("wavenet-f", "wavenet", "m"),
)


def _validate_voices(voices: Sequence[Voice]) -> None:
    standard = [v for v in voices if v.kind == "standard"]
    wavenet = [v for v in voices if v.kind == "wavenet"]
    if len(voices) != 10 or len(standard) != 4 or len(wavenet) != 6:
        raise ConfigError("voice pool must hold exactly 4 standard and 6 wavenet voices")
    for kind, group in (("standard", standard), ("wavenet", wavenet)):
        genders = sorted(v.gender for v in group)
        if genders != ["f"] * (len(group) // 2) + ["m"] * (len(group) // 2):
            raise ConfigError(f"{kind} voices must split half female, half male")
    if len({v.id for v in voices}) != len(voices):
        raise ConfigError("voice ids must be unique")


def _slug(label: str) -> str:
    return _SLUG_PATTERN.sub("_", label.lower()).strip("_") or "candidate"


def export_manifest(
    ranked: RankedList,
    voices: Sequence[Voice] = DEFAULT_VOICES,
) -> list[tuple[str, str, str, str, str]]:
    """One synthesis job per (ranked candidate, voice), rank-major order:
    a ``(label, voice id, voice kind, gender, file name)`` row each.

    Output file names follow ``<rank>_<slug>_<voice>.wav``.  Distinct labels
    that collapse to the same slug are disambiguated with a numeric suffix
    (and logged).
    """
    _validate_voices(voices)
    slugs: dict[str, str] = {}
    used: set[str] = set()
    for item in ranked.items:
        slug = _slug(item.candidate.label)
        if slug in used:
            k = 2
            while f"{slug}_{k}" in used:
                k += 1
            log.warning("slug collision for %r; using %r", item.candidate.label, f"{slug}_{k}")
            slug = f"{slug}_{k}"
        used.add(slug)
        slugs[item.candidate.label] = slug
    return [
        (item.candidate.label, voice.id, voice.kind, voice.gender,
         f"{item.rank}_{slugs[item.candidate.label]}_{voice.id}.wav")
        for item in ranked.items
        for voice in voices
    ]
