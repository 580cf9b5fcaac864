"""Phone inventory and pronouncing-dictionary handling.

Pronunciations are sequences of ARPAbet phone symbols with the lexical
stress digits stripped, so ``AH0`` and ``AH1`` both map to ``AH``.
Dictionary files follow the common pronouncing-dictionary layout::

    ;;; comment
    ALEXA  AH0 L EH1 K S AH0
    TOMATO  T AH0 M EY1 T OW2
    TOMATO(2)  T AH0 M AA1 T OW2

A loaded dictionary (:class:`PronouncingDictionary`) is columns and
nothing else: the words in file order, and per pronunciation (row) its
word index and variant index, with the rows' lengths and phones in one
:class:`PhoneCodes`, the flat layout every vocabulary is scored from,
filled straight from the split lines.  It is never changed once loaded,
and phone tuples are decoded only on demand.  A phrase's pronunciations
are its words' rows joined end to end; :func:`join_rows` encodes phrases
(trigger phrases and transcript n-grams alike) as code columns that index
the dictionary's own phone symbols.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NoPronunciation, OutOfVocabulary, ParseError, UnknownPhone

__all__ = [
    "Phone",
    "PhoneCodes",
    "PhoneInventory",
    "PronouncingDictionary",
    "WakeWordSpec",
    "join_rows",
    "load_dictionary",
    "normalize_word",
    "parse_phone",
    "phrase_phones",
]

# A pronunciation is a tuple of stress-free phone symbols.
PhoneSeq = tuple[str, ...]

VOWELS = (
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY", "IH", "IY",
    "OW", "OY", "UH", "UW",
)
CONSONANTS = (
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N",
    "NG", "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
)

_STRESS_PATTERN = re.compile(r"[0-2]$")
_VARIANT_PATTERN = re.compile(r"^(?P<word>.+)\((?P<index>\d+)\)$")
_COMMENT_PREFIX = ";;;"


@dataclass(frozen=True)
class Phone:
    """A single inventory phone: its symbol and broad articulatory class."""

    symbol: str
    category: str  # "vowel" or "consonant"


class PhoneInventory:
    """The set of phone symbols a dictionary is allowed to use."""

    def __init__(self, phones: Iterable[Phone]):
        self._by_symbol: dict[str, Phone] = {}
        for phone in phones:
            if phone.category not in ("vowel", "consonant"):
                raise ValueError(f"bad phone category: {phone.category!r}")
            self._by_symbol[phone.symbol] = phone

    @classmethod
    def default(cls) -> "PhoneInventory":
        """The standard 39-phone ARPAbet inventory."""
        phones = [Phone(s, "vowel") for s in VOWELS]
        phones += [Phone(s, "consonant") for s in CONSONANTS]
        return cls(phones)

    @classmethod
    def load(cls, lines: Iterable[str]) -> "PhoneInventory":
        """Read an inventory file with one ``SYMBOL CLASS`` pair per line.

        Symbols are upper-cased; a symbol listed twice is an error.
        """
        phones = []
        seen = set()
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIX):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'SYMBOL CLASS', got {line!r}", lineno)
            symbol, category = parts
            if category not in ("vowel", "consonant"):
                raise ParseError(f"unknown phone class {category!r}", lineno)
            symbol = symbol.upper()
            if symbol in seen:
                raise ParseError(f"phone symbol {symbol!r} listed twice", lineno)
            seen.add(symbol)
            phones.append(Phone(symbol, category))
        return cls(phones)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self._by_symbol)

    @property
    def vowels(self) -> frozenset[str]:
        return frozenset(s for s, p in self._by_symbol.items() if p.category == "vowel")

    @property
    def consonants(self) -> frozenset[str]:
        return frozenset(s for s, p in self._by_symbol.items() if p.category == "consonant")

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    def __len__(self) -> int:
        return len(self._by_symbol)

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_symbol)

    def phone(self, symbol: str) -> Phone:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise UnknownPhone(f"unknown phone symbol {symbol!r}") from None


def parse_phone(token: str, inventory: PhoneInventory | None = None) -> Phone:
    """Turn one dictionary token into an inventory phone.

    A trailing stress digit (0-2) is stripped before lookup, so ``AH0``
    parses to the same phone as ``AH``. Unknown symbols raise
    :class:`UnknownPhone`.
    """
    if inventory is None:
        inventory = PhoneInventory.default()
    symbol = _STRESS_PATTERN.sub("", token.upper())
    return inventory.phone(symbol)


def normalize_word(word: str) -> str:
    """Canonical dictionary spelling of a word (upper-cased, trimmed)."""
    return word.strip().upper()


class PhoneIndex(dict):
    """Phone symbol -> small integer code, assigned in order of first use."""

    def __missing__(self, phone: str) -> int:
        code = self[phone] = len(self)
        return code


def encode_phones(prons: Sequence[PhoneSeq]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """``prons``' symbols in first-use order, lengths, and phones as indices into the symbols."""
    index = PhoneIndex()
    codes = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(prons)), np.intp)
    return tuple(index), np.fromiter(map(len, prons), np.intp, count=len(prons)), codes


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive runs of ``sizes``, plus the total at the end."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


class PhoneCodes:
    """The pronunciations (rows) of a run of candidates as flat columns of codes.

    A code, in the smallest unsigned type that holds it, indexes the symbols
    ``phones`` (in order of first use when encoded from tuples).  ``counts``
    holds each candidate's row count, ``lengths`` each row's length and
    ``codes`` every row's phones, in candidate, then variant order; rows
    ``first[k]:first[k + 1]`` are candidate k's, and codes
    ``starts[r]:starts[r + 1]`` row r's.  ``groups``, built on first use and
    kept, holds one ``(positions, block)`` pair per row length m: their row
    indices and ``(m, batch)`` codes, row j holding every such row's j-th phone.
    """

    __slots__ = ("phones", "lengths", "codes", "first", "starts", "_groups")

    def __init__(self, prons_per_candidate: Sequence[Sequence[PhoneSeq]]):
        counts = np.fromiter(map(len, prons_per_candidate), np.intp, len(prons_per_candidate))
        if not counts.all():
            raise NoPronunciation("candidate has no pronunciations")
        prons = list(itertools.chain.from_iterable(prons_per_candidate))
        self._fill(counts, *encode_phones(prons))

    @classmethod
    def from_columns(cls, phones: Sequence[str], counts, lengths, codes) -> "PhoneCodes":
        """Encoded from flat columns; ``phones`` may list symbols no row uses, in any order."""
        self = cls.__new__(cls)
        self._fill(counts, phones, lengths, codes)
        return self

    def _fill(self, counts, phones, lengths, codes) -> None:
        self.phones = tuple(phones)
        self.lengths = np.asarray(lengths, dtype=np.intp)
        self.codes = np.asarray(codes, dtype=np.min_scalar_type(max(len(self.phones) - 1, 0)))
        self.first = _offsets(counts)
        self.starts = _offsets(self.lengths)
        self._groups = None

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.first)

    @property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._groups is None:
            order = np.argsort(self.lengths, kind="stable")
            runs = np.split(order, np.cumsum(np.bincount(self.lengths))[:-1])  # rows by length
            self._groups = [(rows, self.codes[self.starts[rows] + np.arange(m)[:, None]])
                            for m, rows in enumerate(runs) if len(rows)]
        return self._groups

    def rows(self, index: int) -> list[list[int]]:
        """Candidate ``index``'s pronunciations, each a list of codes."""
        lo, hi = self.first[index : index + 2].tolist()  # Python ints slice faster
        bounds = self.starts[lo : hi + 1].tolist()
        flat = self.codes[bounds[0] : bounds[-1]].tolist()
        return [flat[a - bounds[0] : b - bounds[0]] for a, b in zip(bounds, bounds[1:])]

    def decode(self, index: int) -> tuple[PhoneSeq, ...]:
        """Candidate ``index``'s pronunciations, each a tuple of phones."""
        phone = self.phones.__getitem__
        return tuple([tuple(map(phone, row)) for row in self.rows(index)])


class PronouncingDictionary:
    """A pronouncing dictionary as columns; never changed once built.

    ``words`` lists the headwords in file order and ``ids`` maps each to
    its index.  The pronunciations are rows, grouped by word in word order
    and by variant index within a word.  ``word_ids`` holds each row's word
    index and ``variants`` its 1-based variant index, a Python int, since
    an index need not fit in 64 bits.  ``codes`` is a :class:`PhoneCodes`
    with one candidate per word, whose phone tuples it decodes on demand.
    """

    __slots__ = ("inventory", "words", "ids", "word_ids", "variants", "codes")

    def __init__(self, inventory: PhoneInventory, words: list[str], ids: dict[str, int],
                 symbols: Iterable[str], word_ids, variants: list[int], lengths, codes):
        self.inventory = inventory
        self.words = words
        self.ids = ids
        self.word_ids = np.asarray(word_ids, dtype=np.intp)
        self.variants = variants
        sizes = np.bincount(self.word_ids, minlength=len(words))
        self.codes = PhoneCodes.from_columns(symbols, sizes, lengths, codes)

    def _word_id(self, word: str) -> int:
        word_id = self.ids.get(normalize_word(word))
        if word_id is None:
            raise OutOfVocabulary(f"no pronunciation for {word!r}")
        return word_id

    def __len__(self) -> int:
        return len(self.words)

    def entry_map(self) -> dict[str, list[PhoneSeq]]:
        """Plain word -> list-of-phone-sequences view (for comparisons)."""
        # Kept as a method since perfbench/tracing.py, its only non-test caller, counts with it.
        return {w: list(self.codes.decode(i)) for i, w in enumerate(self.words)}


class _SymbolCache(dict):
    """Dictionary token -> phone code, each distinct token parsed once.

    ``codes`` numbers the inventory symbols in order of first use.
    """

    def __init__(self, inventory: PhoneInventory):
        super().__init__()
        self.inventory = inventory
        self.codes = PhoneIndex()

    def __missing__(self, token: str) -> int:
        code = self[token] = self.codes[parse_phone(token, self.inventory).symbol]
        return code


def load_dictionary(
    lines: Iterable[str],
    inventory: PhoneInventory | None = None,
) -> PronouncingDictionary:
    """Parse a pronouncing-dictionary file.

    Blank lines and ``;;;`` comments are skipped. Each entry line is
    ``WORD  PH1 PH2 ...`` with an optional ``(n)`` variant suffix on the
    word. Stress digits are stripped from every phone. Malformed lines
    and unknown phones raise with the offending line number.

    The lines go straight into columns, with no object per line.  Rows
    are sorted into word and variant order only when the file lists some
    variant out of that order.
    """
    if inventory is None:
        inventory = PhoneInventory.default()
    symbols = _SymbolCache(inventory)
    code_of = symbols.__getitem__
    words: list[str] = []
    ids: dict[str, int] = {}
    word_ids: list[int] = []
    variants: list[int] = []
    lengths: list[int] = []
    codes: list[int] = []
    pairs = None  # every (word id, variant) so far, once a row came out of order
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0].startswith(_COMMENT_PREFIX):
            continue
        if len(parts) < 2:
            raise ParseError(f"expected 'WORD PHONES...', got {raw.strip()!r}", lineno)
        name = parts[0]
        match = _VARIANT_PATTERN.match(name) if name[-1] == ")" else None
        if match:
            word = normalize_word(match.group("word"))
            try:
                variant = int(match.group("index"))
            except ValueError:  # more digits than an int may be parsed from
                variant = 0
            if variant < 1:
                raise ParseError(f"bad variant index in {name!r}", lineno)
        else:
            word, variant = name.upper(), 1  # a token holds no whitespace to strip
        try:
            codes.extend(map(code_of, parts[1:]))
        except UnknownPhone as exc:
            raise UnknownPhone(f"line {lineno}: {exc}") from None
        word_id = ids.setdefault(word, len(words))
        if word_id == len(words):
            words.append(word)
        elif pairs is None and (word_id != word_ids[-1] or variant <= variants[-1]):
            pairs = set(zip(word_ids, variants))
        if pairs is not None:
            if (word_id, variant) in pairs:
                raise ParseError(f"duplicate variant {variant} for {word!r}", lineno)
            pairs.add((word_id, variant))
        word_ids.append(word_id)
        variants.append(variant)
        lengths.append(len(parts) - 1)
    if pairs is not None:  # some variant came out of word and variant order
        # Sorted as Python ints: a variant index need not fit in 64 bits.
        order = sorted(range(len(variants)), key=lambda row: (word_ids[row], variants[row]))
        rows = PhoneCodes.from_columns(symbols.codes, [len(order)], lengths, codes)
        ends, codes = _gather(rows, np.array(order, dtype=np.intp))
        lengths = np.diff(ends)
        word_ids = [word_ids[row] for row in order]
        variants = [variants[row] for row in order]
    return PronouncingDictionary(inventory, words, ids, symbols.codes, word_ids, variants,
                                 lengths, codes)


@dataclass(frozen=True)
class WakeWordSpec:
    """A wake word as configured for one voice assistant."""

    id: str
    text: str
    phones: PhoneSeq
    explicit_blocklist: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.phones:
            raise ValueError(f"wake word {self.id!r} has no phones")


# Cap on the pronunciation combinations generated for a multi-word phrase.
MAX_PHRASE_VARIANTS = 16


def join_rows(codes: PhoneCodes, phrases: Iterable[Sequence[int]]) -> tuple[np.ndarray, ...]:
    """The phrase encoder: ``(counts, lengths, codes)`` columns over ``codes.phones`` of
    phrases of word ids.  The phrase rule: a phrase's rows are the product of its
    words' rows in variant order, each joining one row of each word, truncated to
    :data:`MAX_PHRASE_VARIANTS`, so the all-first-variants row always survives."""
    first = codes.first.tolist()
    counts, parts, sizes = [], [], []  # rows per phrase; each row's word rows, and their number
    for words in phrases:
        if not words:
            raise ValueError("empty phrase")
        rows = [range(first[w], first[w + 1]) for w in words]
        combos = list(itertools.islice(itertools.product(*rows), MAX_PHRASE_VARIANTS))
        counts.append(len(combos))
        sizes += [len(words)] * len(combos)
        parts += itertools.chain.from_iterable(combos)
    parts = np.array(parts, dtype=np.intp)  # frees the list before the gather
    ends, flat = _gather(codes, parts)
    return np.array(counts, dtype=np.intp), np.diff(ends[_offsets(sizes)]), flat


def _gather(codes: PhoneCodes, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``codes``' rows ``rows`` end to end: the offsets where each starts, plus the
    total at the end, and the codes."""
    lengths = codes.lengths[rows]
    ends = _offsets(lengths)
    flat = codes.codes[np.repeat(codes.starts[rows] - ends[:-1], lengths) + np.arange(ends[-1])]
    return ends, flat


def phrase_phones(dictionary: PronouncingDictionary, words: list[str]) -> list[PhoneSeq]:
    """Concatenated pronunciations for a phrase: the rows of :func:`join_rows`, decoded."""
    # Kept since perfbench/tracing.py, its only non-test caller, wraps it.
    codes = dictionary.codes
    phrase = [dictionary._word_id(word) for word in words]
    return list(PhoneCodes.from_columns(codes.phones, *join_rows(codes, [phrase])).decode(0))
