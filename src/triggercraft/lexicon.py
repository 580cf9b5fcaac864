"""Phone inventory and pronouncing-dictionary handling.

Pronunciations are sequences of ARPAbet phone symbols with the lexical
stress digits stripped, so ``AH0`` and ``AH1`` both map to ``AH``.
Dictionary files follow the common pronouncing-dictionary layout::

    ;;; comment
    ALEXA  AH0 L EH1 K S AH0
    TOMATO  T AH0 M EY1 T OW2
    TOMATO(2)  T AH0 M AA1 T OW2
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, ItemsView

from .errors import OutOfVocabulary, ParseError, UnknownPhone

__all__ = [
    "Phone",
    "PhoneInventory",
    "Pronunciation",
    "PronouncingDictionary",
    "WakeWordSpec",
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


@dataclass(frozen=True)
class Pronunciation:
    """One pronunciation variant of a dictionary word."""

    word: str
    variant_index: int  # 1-based
    phones: PhoneSeq

    def __post_init__(self):
        if not self.phones:
            raise ValueError(f"empty pronunciation for {self.word!r}")
        if self.variant_index < 1:
            raise ValueError("variant_index is 1-based")


@dataclass
class PronouncingDictionary:
    """Maps normalized words to their pronunciation variants."""

    inventory: PhoneInventory = field(default_factory=PhoneInventory.default)
    _entries: dict[str, list[Pronunciation]] = field(default_factory=dict)

    def add(self, pron: Pronunciation) -> None:
        variants = self._entries.setdefault(pron.word, [])
        if any(v.variant_index == pron.variant_index for v in variants):
            raise ParseError(
                f"duplicate variant {pron.variant_index} for {pron.word!r}"
            )
        variants.append(pron)
        variants.sort(key=lambda v: v.variant_index)

    def lookup(self, word: str) -> list[Pronunciation]:
        """All variants of ``word`` in variant order.

        Raises :class:`OutOfVocabulary` when the word has no entry.
        """
        variants = self._entries.get(normalize_word(word))
        if not variants:
            raise OutOfVocabulary(f"no pronunciation for {word!r}")
        return list(variants)

    def __contains__(self, word: str) -> bool:
        return normalize_word(word) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def words(self) -> Iterator[str]:
        return iter(self._entries)

    def items(self) -> ItemsView[str, list[Pronunciation]]:
        """(normalized word, variants in variant order) pairs; do not mutate."""
        return self._entries.items()

    def entry_map(self) -> dict[str, list[PhoneSeq]]:
        """Plain word -> list-of-phone-sequences view (for comparisons)."""
        return {w: [v.phones for v in vs] for w, vs in self._entries.items()}

    def dump(self, stream: IO[str]) -> None:
        """Write the dictionary back out in its file format."""
        for word, variants in self._entries.items():
            for pron in variants:
                name = word if pron.variant_index == 1 else f"{word}({pron.variant_index})"
                stream.write(f"{name}  {' '.join(pron.phones)}\n")


class _SymbolCache(dict):
    """Dictionary token -> inventory symbol, each distinct token parsed once."""

    def __init__(self, inventory: PhoneInventory):
        super().__init__()
        self.inventory = inventory

    def __missing__(self, token: str) -> str:
        symbol = self[token] = parse_phone(token, self.inventory).symbol
        return symbol


def load_dictionary(
    lines: Iterable[str],
    inventory: PhoneInventory | None = None,
) -> PronouncingDictionary:
    """Parse a pronouncing-dictionary file.

    Blank lines and ``;;;`` comments are skipped. Each entry line is
    ``WORD  PH1 PH2 ...`` with an optional ``(n)`` variant suffix on the
    word. Stress digits are stripped from every phone. Malformed lines
    and unknown phones raise with the offending line number.
    """
    if inventory is None:
        inventory = PhoneInventory.default()
    dictionary = PronouncingDictionary(inventory=inventory)
    symbols = _SymbolCache(inventory)
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIX):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"expected 'WORD PHONES...', got {line!r}", lineno)
        name, tokens = parts[0], parts[1:]
        match = _VARIANT_PATTERN.match(name)
        if match:
            word = normalize_word(match.group("word"))
            try:
                variant_index = int(match.group("index"))
            except ValueError:  # more digits than an int may be parsed from
                variant_index = 0
            if variant_index < 1:
                raise ParseError(f"bad variant index in {name!r}", lineno)
        else:
            word, variant_index = normalize_word(name), 1
        try:
            phones = tuple(map(symbols.__getitem__, tokens))
            dictionary.add(Pronunciation(word, variant_index, phones))
        except UnknownPhone as exc:
            raise UnknownPhone(f"line {lineno}: {exc}") from None
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return dictionary


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


def phrase_phones(
    dictionary: PronouncingDictionary,
    words: list[str],
    max_variants: int = MAX_PHRASE_VARIANTS,
) -> list[PhoneSeq]:
    """Concatenated pronunciations for a phrase, one per variant combination.

    The Cartesian product of per-word variants is enumerated in variant-index
    order (first variants first) and truncated to ``max_variants`` entries, so
    the all-first-variants combination always survives. A word without an
    entry raises :class:`OutOfVocabulary`.
    """
    if not words:
        raise ValueError("empty phrase")
    per_word = [dictionary.lookup(w) for w in words]
    combos = itertools.islice(itertools.product(*per_word), max_variants)
    return [tuple(itertools.chain.from_iterable(v.phones for v in combo)) for combo in combos]
