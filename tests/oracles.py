"""Independent reference implementations used to cross-check the package.

The centerpiece is an exhaustive edit-script enumerator: it lists *every*
monotone rewrite script between two phone sequences, prices each script by
folding its step costs left to right (the same association order the
production dynamic program uses), and takes the minimum.  Because both
sides perform identical IEEE-754 additions in identical order, the oracle
and the production scorer must agree bit for bit, not just approximately.

Everything here is deliberately slow and simple.  The enumerator shares
nothing with the package under test.  :func:`reference_rank_vectors`
prices every edit itself (:func:`_reference_weights`) and calls only the
package's kernel, ``rewrite_costs``, with every grid point a lane: not the
batched driver ``batch_costs``, nor ``tuning._grid_cost`` or the tile
pruning it checks.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime
from functools import lru_cache

import numpy as np

from triggercraft.candidates import Candidate, Vocabulary, normalize_label
from triggercraft.distance import (
    CostContext,
    CostModel,
    DistanceBreakdown,
    PhoneCodes,
    ScaleFactors,
    WeightTable,
    rewrite_costs,
)
from triggercraft.errors import (
    NegativeProgress,
    NoQualifyingWords,
    ParseError,
    UnknownLabel,
    UnknownPhone,
)
from triggercraft.harness import (
    Adjudication,
    TriggerEvent,
    VerificationResult,
)
from triggercraft.lexicon import PhoneInventory, parse_phone
from triggercraft.tuning import LabeledTrigger, TriggerRanks
from triggercraft.weights import ProbePlan

# A compact phone alphabet for randomized tests.  Real inventory symbols,
# so the same sequences can be round-tripped through dictionary fixtures.
ALPHABET = ("AA", "B", "IY", "K", "S", "T")


@lru_cache(maxsize=None)
def edit_scripts(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All edit scripts between an n-phone and an m-phone sequence.

    Each script is a tuple of flat cost-vector indices (see
    :func:`cost_vector` for the layout), ordered from the start of the
    sequences to the end.  Scripts are enumerated once per (n, m) shape and
    cached; the number of scripts is the Delannoy number D(n, m).
    """
    base = n + m
    memo: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}

    def build(i: int, j: int) -> list[tuple[int, ...]]:
        got = memo.get((i, j))
        if got is not None:
            return got
        acc: list[tuple[int, ...]] = []
        if i and j:
            step = base + (i - 1) * m + j
            acc.extend(s + (step,) for s in build(i - 1, j - 1))
        if i:
            acc.extend(s + (i,) for s in build(i - 1, j))
        if j:
            acc.extend(s + (n + j,) for s in build(i, j - 1))
        memo[(i, j)] = acc
        return acc

    return tuple(build(n, m))


def cost_vector(wake, cand, model: CostModel) -> list[float]:
    """Per-step costs for one (wake, cand, model) triple.

    Layout: index ``i`` in ``1..n`` prices deleting ``wake[i-1]``; index
    ``n+j`` prices inserting ``cand[j-1]``; index ``n+m+(i-1)*m+j`` prices
    pairing ``wake[i-1]`` with ``cand[j-1]`` (zero on a match).  Index 0 is
    unused padding.
    """
    n, m = len(wake), len(cand)
    scales = model.scales
    table = model.table
    costs = [0.0] * (1 + n + m + n * m)
    for a, p in enumerate(wake, 1):
        w = table.deletion.get(p, 1.0) if table is not None else 1.0
        costs[a] = scales.d * w
    for b, q in enumerate(cand, 1):
        w = table.insertion.get(q, 1.0) if table is not None else 1.0
        costs[n + b] = scales.i * w
    offset = n + m
    for a, p in enumerate(wake):
        for b, q in enumerate(cand, 1):
            if p == q:
                continue  # matches stay 0.0
            w = table.substitution.get((p, q), 1.0) if table is not None else 1.0
            costs[offset + a * m + b] = scales.s * w
    return costs


def oracle_costs(wake, cand, models) -> list[float]:
    """Minimum unnormalized rewrite cost per model, by brute force.

    ``sum`` folds each script's costs left to right starting from zero,
    which is exactly the association order of the production DP.
    """
    scripts = edit_scripts(len(wake), len(cand))
    out = []
    for model in models:
        get = cost_vector(wake, cand, model).__getitem__
        out.append(min(sum(map(get, script)) for script in scripts))
    return out


def oracle_cost(wake, cand, model: CostModel) -> float:
    return oracle_costs(wake, cand, [model])[0]


def oracle_distance(wake, cand, model: CostModel) -> float:
    """Normalized distance: minimum script cost over the wake phone count."""
    return oracle_cost(wake, cand, model) / len(wake)


def random_phones(rng: random.Random, lo: int, hi: int, alphabet=ALPHABET) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_weight_table(rng: random.Random, alphabet=ALPHABET) -> WeightTable:
    """An arbitrary (deliberately unnormalized) weight table over ``alphabet``."""
    return WeightTable(
        deletion={p: rng.uniform(0.05, 2.5) for p in alphabet},
        insertion={p: rng.uniform(0.05, 2.5) for p in alphabet},
        substitution={
            (p, q): rng.uniform(0.05, 2.5)
            for p in alphabet
            for q in alphabet
            if p != q
        },
        row_phones=frozenset(alphabet),
    )


def random_models(rng: random.Random, alphabet=ALPHABET) -> list[CostModel]:
    """One model of each variant with randomized scales/weights."""
    scales = ScaleFactors(
        s=rng.uniform(0.0, 2.0), d=rng.uniform(0.0, 2.0), i=rng.uniform(0.0, 2.0)
    )
    return [
        CostModel.unweighted(),
        CostModel.simple(scales),
        CostModel.advanced(scales, random_weight_table(rng, alphabet)),
    ]


def one_at_a_time(row_costs):
    """``CostContext.row_costs`` run on a batch of one candidate per call.

    Patched over the bulk method, it makes any caller (``score`` among them)
    price every kept candidate alone, from a fresh encoding of its own
    pronunciations, so outputs can be compared against bulk scoring.
    """

    def priced_singly(ctx, codes, keep=None):
        prons = [None] * int(codes.counts.sum())
        for positions, block in codes.groups:
            for position, column in zip(positions, block.T):
                prons[position] = tuple(codes.phones[c] for c in column)
        costs = np.full(len(prons), np.inf)
        for idx, (start, stop) in enumerate(zip(codes.first[:-1], codes.first[1:])):
            if keep is None or keep[idx]:
                costs[start:stop] = row_costs(ctx, PhoneCodes([prons[start:stop]]))
        return costs

    return priced_singly


# ---------------------------------------------------------------------------
# The scalar alignment: full cost and op matrices, a backtrack, then a second
# walk over the script to collect the weighted operation masses.  Priced
# apart from the package, with the same products (scale times weight) and
# the same fallback weight of 1 for a missing table entry.

_MATCH, _SUB, _DEL, _INS = 0, 1, 2, 3


def _reference_weights(wake, model: CostModel):
    """(deletion weights, substitution weight of (i, q), insertion weight of q)."""
    table = model.table if model.variant == "advanced" else None

    def weight(kind, key):
        return 1.0 if table is None else getattr(table, kind).get(key, 1.0)

    def sub_weight(i, q):
        p = wake[i]
        return 0.0 if p == q else weight("substitution", (p, q))

    def ins_weight(q):
        return weight("insertion", q)

    return [weight("deletion", p) for p in wake], sub_weight, ins_weight


def reference_align(wake, cand, model: CostModel) -> DistanceBreakdown:
    """What :func:`triggercraft.distance.align` returns, by the scalar DP."""
    wake, cand = tuple(wake), tuple(cand)
    scales = model.scales
    del_weights, sub_weight, ins_weight = _reference_weights(wake, model)
    del_costs = [scales.d * w for w in del_weights]
    n, m = len(wake), len(cand)
    ins_costs = [scales.i * ins_weight(q) for q in cand]

    # Full cost/op matrices, row by row.
    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    ops = [[_INS] * (m + 1) for _ in range(n + 1)]
    acc = 0.0
    for j in range(1, m + 1):
        acc += ins_costs[j - 1]
        cost[0][j] = acc
    for i in range(1, n + 1):
        cost[i][0] = cost[i - 1][0] + del_costs[i - 1]
        ops[i][0] = _DEL
    for i in range(1, n + 1):
        p = wake[i - 1]
        del_cost = del_costs[i - 1]
        row_cost = cost[i]
        prev_cost = cost[i - 1]
        row_ops = ops[i]
        for j in range(1, m + 1):
            q = cand[j - 1]
            best = prev_cost[j - 1] + scales.s * sub_weight(i - 1, q)
            op = _MATCH if p == q else _SUB
            alt = prev_cost[j] + del_cost
            if alt < best:
                best, op = alt, _DEL
            alt = row_cost[j - 1] + ins_costs[j - 1]
            if alt < best:
                best, op = alt, _INS
            row_cost[j] = best
            row_ops[j] = op

    # Backtrack the chosen script.
    steps: list[tuple] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i == 0:
            op = _INS
        elif j == 0:
            op = _DEL
        else:
            op = ops[i][j]
        if op == _MATCH:
            steps.append(("match", wake[i - 1]))
            i, j = i - 1, j - 1
        elif op == _SUB:
            steps.append(("substitute", wake[i - 1], cand[j - 1]))
            i, j = i - 1, j - 1
        elif op == _DEL:
            steps.append(("delete", wake[i - 1]))
            i -= 1
        else:
            steps.append(("insert", cand[j - 1]))
            j -= 1
    steps.reverse()

    sub_w: list[float] = []
    del_w: list[float] = []
    ins_w: list[float] = []
    i = j = 0
    for step in steps:
        kind = step[0]
        if kind == "match":
            i += 1
            j += 1
        elif kind == "substitute":
            sub_w.append(sub_weight(i, cand[j]))
            i += 1
            j += 1
        elif kind == "delete":
            del_w.append(del_weights[i])
            i += 1
        else:
            ins_w.append(ins_weight(cand[j]))
            j += 1
    return DistanceBreakdown(
        L=cost[n][m] / n,
        S=math.fsum(sub_w),
        D=math.fsum(del_w),
        I=math.fsum(ins_w),
        S_n=len(sub_w),
        D_n=len(del_w),
        I_n=len(ins_w),
        N=n,
        alignment=steps,
    )


def reference_distance(wake, prons, model: CostModel) -> DistanceBreakdown:
    """The best variant's :func:`reference_align`; a tie keeps the first."""
    best = None
    for pron in prons:
        breakdown = reference_align(wake, pron, model)
        if best is None or breakdown.L < best.L:
            best = breakdown
    return best


# ---------------------------------------------------------------------------
# Measurement logs, read by the README contract one field at a time, and the
# join of the three logs by plain lists and ``pop(0)``.

_REVIEW_LABELS = ("accidental", "wake-word-present", "related-word")
_REQUIRED = object()


def _field(record: dict, key: str, accepts, what: str, default=_REQUIRED):
    """``record[key]`` (``default`` when absent) if ``accepts`` it, else
    the KeyError or ValueError that the package words for that field."""
    if key in record:
        value = record[key]
    elif default is _REQUIRED:
        raise KeyError(key)
    else:
        value = default
    if not accepts(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _is_double(value) -> bool:
    """A JSON number (never a boolean) whose double is finite."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an integer beyond the largest double
        return False


def _is_count(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _text(record: dict, key: str) -> str:
    """``record[key]``: a string, and then one without a lone surrogate
    (U+D800 to U+DFFF), so that UTF-8 can write it out."""
    _field(record, key, lambda v: isinstance(v, str), "a string")
    return _field(record, key, lambda v: not any(0xD800 <= ord(c) <= 0xDFFF for c in v),
                  "UTF-8 text")


def _reference_event(record: dict, lineno: int) -> TriggerEvent:
    try:
        ts = _field(record, "ts", lambda v: isinstance(v, str), "a string")
        timestamp = datetime.fromisoformat(ts.replace("Z", "+00:00"))
        media = _text(record, "media")
        progress = float(_field(record, "progress_s", _is_double, "a finite number"))
        speaker = _text(record, "speaker")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad event record: {exc!r}", lineno) from None
    if progress < 0:
        raise NegativeProgress(f"line {lineno}: negative playback position {progress!r}")
    return TriggerEvent(timestamp, media, progress, speaker)


def _reference_verification(record: dict, event: TriggerEvent, lineno: int):
    try:
        replays = int(_field(record, "replays", _is_count, "a whole number", 10))
        hits = int(_field(record, "hits", _is_count, "a whole number"))
        if not 1 <= replays <= 10:
            raise ValueError(f"replays={replays} outside 1..10")
        if not 0 <= hits <= replays:
            raise ValueError(f"hits={hits} outside 0..{replays}")
        led = float(_field(record, "led_on_s", _is_double, "a finite number", 0.0))
        voice = _field(record, "voice_response", lambda v: type(v) is bool, "true or false", False)
        cloud = _field(record, "cloud_pattern", lambda v: type(v) is bool, "true or false", False)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad verification record: {exc!r}", lineno) from None
    return VerificationResult(event, replays, hits, led, voice, cloud)


def _reference_adjudication(record: dict, event: TriggerEvent, lineno: int) -> Adjudication:
    try:
        labels = [record["reviewer_a"], record["reviewer_b"]]
        for label in labels:
            if label not in _REVIEW_LABELS:
                raise ValueError(f"unknown review label {label!r}")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad adjudication record: {exc!r}", lineno) from None
    return Adjudication(event, *labels)


def reference_log(kind: str, lines) -> list:
    """Parse an ``"events"``, ``"verification"`` or ``"adjudication"`` log.

    Every non-blank line must be one JSON object (``json.loads`` of the
    stripped line); its event fields, then the fields of its kind, are
    checked in the order the README lists them, and the first broken one
    is a ParseError with the line number.
    """
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}", lineno) from None
        if not isinstance(record, dict):
            raise ParseError(f"expected a JSON object, got {line[:40]!r}", lineno)
        event = _reference_event(record, lineno)
        if kind == "events":
            out.append(event)
        elif kind == "verification":
            out.append(_reference_verification(record, event, lineno))
        else:
            out.append(_reference_adjudication(record, event, lineno))
    return out


def reference_join(events, verifications, adjudications):
    """(analyses as (verification, adjudication), unverified, orphans).

    Each key's records wait in a list in log order; an event takes the
    first one left.
    """
    def key(event):
        return (event.speaker_id, event.media_id, event.progress_s)

    waiting_ver, waiting_adj = {}, {}
    for verification in verifications:
        waiting_ver.setdefault(key(verification.event), []).append(verification)
    for adj in adjudications:
        waiting_adj.setdefault(key(adj.event), []).append(adj)
    joined, unverified = [], 0
    for event in events:
        if not waiting_ver.get(key(event)):
            unverified += 1
            continue
        verification = waiting_ver[key(event)].pop(0)
        adjs = waiting_adj.get(key(event))
        joined.append((verification, adjs.pop(0) if adjs else None))
    orphans = sum(len(v) for v in waiting_ver.values()) + sum(len(v) for v in waiting_adj.values())
    return joined, unverified, orphans


# ---------------------------------------------------------------------------
# The pronouncing dictionary as objects: one Variant per line, kept in
# per-word lists, the way the package stored it before it kept columns.

_VARIANT = re.compile(r"^(?P<word>.+)\((?P<index>\d+)\)$")


@dataclass(frozen=True)
class Variant:
    """One pronunciation variant of a dictionary word."""

    word: str
    variant_index: int  # 1-based
    phones: tuple[str, ...]


def reference_load_dictionary(lines, inventory=None) -> dict[str, list[Variant]]:
    """Word -> its Variants in variant order, words in file order.

    Parses line by line, builds one object per line and adds it to its
    word's list at once: the errors, their messages and line numbers are
    those of the first bad line.
    """
    if inventory is None:
        inventory = PhoneInventory.default()
    entries: dict[str, list[Variant]] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith(";;;"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"expected 'WORD PHONES...', got {line!r}", lineno)
        name, tokens = parts[0], parts[1:]
        match = _VARIANT.match(name)
        if match:
            word = match.group("word").strip().upper()
            try:
                variant_index = int(match.group("index"))
            except ValueError:  # more digits than an int may be parsed from
                variant_index = 0
            if variant_index < 1:
                raise ParseError(f"bad variant index in {name!r}", lineno)
        else:
            word, variant_index = name.strip().upper(), 1
        try:
            phones = tuple(parse_phone(token, inventory).symbol for token in tokens)
        except UnknownPhone as exc:
            raise UnknownPhone(f"line {lineno}: {exc}") from None
        variants = entries.setdefault(word, [])
        if any(v.variant_index == variant_index for v in variants):
            raise ParseError(f"duplicate variant {variant_index} for {word!r}", lineno)
        variants.append(Variant(word, variant_index, phones))
        variants.sort(key=lambda v: v.variant_index)
    return entries


def reference_listing(entries) -> list[tuple[str, int, tuple[str, ...]]]:
    """(word, variant index, phones) of every variant of ``entries``, in order."""
    return [(word, v.variant_index, v.phones)
            for word, variants in entries.items() for v in variants]


def dictionary_listing(dictionary) -> list[tuple[str, int, tuple[str, ...]]]:
    """(word, variant index, phones) of every row of a loaded dictionary, read
    from its columns: the shape :func:`reference_listing` gives."""
    words, variants = dictionary.words, dictionary.variants
    phones = [p for word_id in range(len(words)) for p in dictionary.codes.decode(word_id)]
    return [(words[w], v, p) for w, v, p in zip(dictionary.word_ids.tolist(), variants, phones,
                                                strict=True)]


def reference_dictionary_candidates(entries) -> list:
    """One candidate per word of ``entries`` (word -> Variants), all its variants."""
    return [Candidate(word.lower(), tuple(v.phones for v in variants))
            for word, variants in entries.items()]


def reference_blocklist(wake, entries) -> set[str]:
    """The wake word's text and explicit list, plus every word of ``entries``
    with a variant whose phones are a contiguous run of the wake word's."""
    def normalize(label):
        return " ".join(label.lower().split())

    phones = wake.phones
    pieces = {phones[i:j] for i in range(len(phones)) for j in range(i + 1, len(phones) + 1)}
    blocked = {normalize(b) for b in (wake.text, *wake.explicit_blocklist)}
    for word, variants in entries.items():
        if any(v.phones in pieces for v in variants):
            blocked.add(normalize(word))
    return blocked


def reference_phrase_phones(entries, words, max_variants=16) -> list[tuple[str, ...]]:
    """A phrase's pronunciations from ``entries`` (word -> Variants):
    each combination of its words' variants, first variants first, joined,
    and only the first ``max_variants`` combinations."""
    combos = [()]
    for word in words:
        combos = [combo + v.phones for combo in combos for v in entries[word.upper()]]
    return combos[:max_variants]


def reference_join_rows(codes, phrases, max_variants=16) -> tuple[list[int], ...]:
    """``join_rows`` by ``itertools.product``: each phrase's combinations of its
    words' rows (candidates of ``codes``), last word fastest, the first
    ``max_variants`` of them, each row's codes joined end to end."""
    flat, starts, first = codes.codes.tolist(), codes.starts.tolist(), codes.first.tolist()
    counts, lengths, joined = [], [], []
    for words in phrases:
        if not words:
            raise ValueError("empty phrase")
        rows = [range(first[w], first[w + 1]) for w in words]
        combos = list(itertools.islice(itertools.product(*rows), max_variants))
        counts.append(len(combos))
        for combo in combos:
            row = [code for r in combo for code in flat[starts[r] : starts[r + 1]]]
            lengths.append(len(row))
            joined += row
    return counts, lengths, joined


def reference_extract_ngrams(entries, lines, n) -> tuple[list, int]:
    """The n-grams of ``lines`` as candidates built one by one, and how many were dropped.

    A token is a run of letters a-z and apostrophes in the lower-cased line,
    unless it is apostrophes only.  Each line's windows of ``n`` tokens are
    counted in order of first appearance; a window with a word missing from
    ``entries`` (word -> Variants) is dropped, and every other becomes
    a candidate with its :func:`reference_phrase_phones`.
    """
    counts: dict[str, int] = {}
    for line in lines:
        tokens, run = [], ""
        for ch in line.lower() + " ":
            if "a" <= ch <= "z" or ch == "'":
                run += ch
                continue
            if run.replace("'", ""):
                tokens.append(run)
            run = ""
        for start in range(len(tokens) - n + 1):
            label = " ".join(tokens[start:start + n])
            counts[label] = counts.get(label, 0) + 1
    kept = [(label, count) for label, count in counts.items()
            if all(word.upper() in entries for word in label.split())]
    candidates = [Candidate(label, tuple(reference_phrase_phones(entries, label.split())),
                            f"{n}-gram", count) for label, count in kept]
    return candidates, len(counts) - len(kept)


def reference_sample_probe_words(entries, phone, n_words, seed) -> ProbePlan:
    """The probe plan by a walk over every variant of ``entries`` (word -> Variants)."""
    qualifying = sorted(
        word for word, variants in entries.items() if any(phone in v.phones for v in variants)
    )
    if not qualifying:
        raise NoQualifyingWords(f"no dictionary word contains phone {phone!r}")
    if len(qualifying) <= n_words:
        words = tuple(qualifying)
    else:
        words = tuple(random.Random(seed).sample(qualifying, n_words))
    return ProbePlan(phone=phone, words=words, n_voices=10, seed=seed)


# ---------------------------------------------------------------------------
# Trigger ranks, one full ranking at a time: the reference for TriggerRanks.


def rank_of(label, vocab, wake, model: CostModel) -> int:
    """Competition rank of ``label`` in a full ranking of ``vocab``.

    Rank 1 + (number of candidates strictly closer); tied candidates share
    the same rank.  Raises :class:`UnknownLabel` when the label is absent.
    """
    vocab = Vocabulary.of(vocab)
    try:
        target = vocab.normalized_labels.index(normalize_label(label))
    except ValueError:
        raise UnknownLabel(f"label {label!r} not in vocabulary") from None
    costs = CostContext(wake.phones, model).score(vocab.codes)
    return 1 + int(np.count_nonzero(costs < costs[target]))


def best_achievable_rank(trigger, vocab, wake, grid, variant="simple", table=None,
                         blocklist=()) -> int:
    """The best rank ``trigger`` reaches at any point of ``grid``: one
    trigger's :class:`TriggerRanks` vector, reduced by its minimum."""
    ranks = TriggerRanks(
        [LabeledTrigger(wake.id, trigger.trigger_label)], vocab, [wake], grid, variant, table,
        blocklists={wake.id: blocklist},
    )
    return int(ranks.of(wake.id)[trigger.trigger_label].min())


def reference_grid_costs(wake, prons, grid, variant="simple", table=None) -> np.ndarray:
    """A candidate's cost at every point of ``grid``, in lexicographic (s, d, i) order.

    One :func:`rewrite_costs` call per pronunciation with every grid point a
    lane, each edit priced by the point's scale times its weight (1 where the
    table has none, 0 for a match); nothing is pruned."""
    del_weights, sub_weight, ins_weight = _reference_weights(wake, CostModel(variant, table=table))
    axis = np.array(grid.axis_values())
    s, d, i = (values.ravel() for values in np.meshgrid(axis, axis, axis, indexing="ij"))
    return np.minimum.reduce([
        rewrite_costs(np.reshape([i * ins_weight(q) for q in pron], (len(pron), len(s))),
                      ([s * sub_weight(k, q) for q in pron] for k in range(len(wake))),
                      [d * w for w in del_weights])
        for pron in prons
    ])


def reference_rank_vectors(labels, vocab, wake, grid, variant="simple", table=None,
                           blocklist=()) -> dict[str, np.ndarray]:
    """label -> competition rank at every grid point, every kept candidate
    scored at every point: the reference for TriggerRanks' pruned pass.

    A label's target is the first kept candidate carrying it."""
    blocked = {normalize_label(b) for b in (wake.text, *wake.explicit_blocklist, *blocklist)}
    costs, targets = [], {}
    for cand in vocab:
        label = normalize_label(cand.label)
        if label not in blocked:
            costs.append(reference_grid_costs(wake.phones, cand.prons, grid, variant, table))
            targets.setdefault(label, costs[-1])
    return {label: 1 + sum(cost < targets[label] for cost in costs) for label in labels}
