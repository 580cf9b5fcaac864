"""Weighted phone-level edit distance between a wake word and a candidate.

The distance from a wake-word phone sequence to a candidate phone sequence
is the cheapest way to rewrite the wake word into the candidate using
substitutions, deletions, and insertions.  Each operation carries a global
scale factor and, in the advanced model, a per-phone weight estimated from
acoustic probe data.  The total cost is normalized by the wake word's phone
count, so the score is comparable across candidates of different lengths.

Three model variants share one implementation:

* ``unweighted`` -- every operation costs 1.
* ``simple`` -- per-operation scale factors, no per-phone weights.
* ``advanced`` -- scale factors multiplied by per-phone weight tables.

One rule prices every edit: its cost is the operation's scale factor times
the phone weight a :class:`CostContext` caches for it (1 outside the
advanced model, 0 for a match), one IEEE product.  The kernel, :func:`align`
and the tuning grid pass all read their weights from a context, so they
agree on every cost bit for bit.

One kernel, :func:`rewrite_costs`, runs the dynamic program cell by cell,
each cell one float64 vector whose lanes are independent problems.
:meth:`CostContext.score` lays candidates along it: the kept columns of
each length-m block of a :class:`PhoneCodes` encoding, which is built once
per vocabulary and shared by every wake word and model ranked against it,
priced for the phones of kept candidates only.  The tuning grid pass lays
grid points along it instead, one code row of its flat columns at a time.

The kernel is bit-identical to the scalar recurrence that :func:`align`
runs on Python floats.  Each cell performs the same IEEE-754 additions on
the same operands -- ``diag + sub``, ``up + del``, ``left + ins`` -- and
keeps the smallest; a minimum of three finite non-negative values does not
depend on the order they are compared in, and a match adds 0 in both.  The
first row is the running sum of insertion costs, added left to right, and
the first column the running sum of deletion costs, as in the scalar loop.
A candidate's cost is the minimum over its variants, so the per-candidate
reduction is exact too.  A lane depends on its own operands only, so
neither its batch, the mask nor the other grid points change it.

:func:`align` keeps no op matrix: it reads the edit script of the one
variant it reports back from that variant's costs.  Each step is the first
of diagonal, delete and insert whose sum, recomputed with the same
addition, equals its cell; a cell is the exact minimum of its three sums,
so this is the forward pass's tie-break.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyWakeWord, NoPronunciation
from .lexicon import PhoneCodes, PhoneSeq, WakeWordSpec

__all__ = [
    "CostContext",
    "CostModel",
    "DistanceBreakdown",
    "PhoneCodes",
    "ScaleFactors",
    "WeightTable",
    "align",
    "distance_to_wakeword",
    "rewrite_costs",
]

log = logging.getLogger(__name__)

VARIANTS = ("unweighted", "simple", "advanced")


@dataclass(frozen=True)
class ScaleFactors:
    """Global per-operation cost factors (substitute, delete, insert)."""

    s: float = 1.0
    d: float = 1.0
    i: float = 1.0

    def __post_init__(self):
        for name in ("s", "d", "i"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"scale factor {name}={value!r} must be finite and >= 0")


UNIT_SCALES = ScaleFactors(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class WeightTable:
    """Phone-dependent operation weights for the advanced model.

    ``deletion`` and ``insertion`` map single phones to weights;
    ``substitution`` maps (wake phone, candidate phone) pairs.  Rows of the
    substitution table exist only for phones that occur in the configured
    wake words (``row_phones``); lookups outside the stored entries fall
    back to a neutral weight of 1 at scoring time, logged once per table.
    """

    deletion: dict[str, float]
    insertion: dict[str, float]
    substitution: dict[tuple[str, str], float]
    row_phones: frozenset[str] = frozenset()
    _fallbacks: set[tuple] = field(default_factory=set, init=False, repr=False, compare=False)

    def weight(self, kind: str, key) -> float:
        """The ``kind`` weight of ``key``; 1.0 where there is none, logged the first time."""
        value = getattr(self, kind).get(key)
        if value is None:
            if (kind, key) not in self._fallbacks:
                self._fallbacks.add((kind, key))
                log.warning("no %s weight for %r; falling back to 1.0", kind, key)
            return 1.0
        return value

    def check_weights(self, error: type[Exception] = ValueError) -> None:
        """Raise ``error`` for the first weight that is not finite and >= 0.

        Such a weight cannot price an edit: it makes costs NaN or lets an
        alignment's backtrack find no step that sums to its cell.
        """
        for name in ("deletion", "insertion", "substitution"):
            for key, value in getattr(self, name).items():
                if not (math.isfinite(value) and value >= 0):
                    raise error(f"{name} weight {key!r} is {value!r}, not finite and >= 0")

    def validate(self, tolerance: float = 1e-9) -> None:
        """Check the normalization invariants of an estimated table.

        Every weight must pass :meth:`check_weights`.  Deletion and
        insertion weights must average to 1 over their domain; every
        substitution row must average to 1 over its stored columns and
        never contain the diagonal.
        """
        from .errors import FormatError

        self.check_weights(FormatError)
        for name, mapping in (("deletion", self.deletion), ("insertion", self.insertion)):
            if not mapping:
                raise FormatError(f"{name} section is empty")
            values = list(mapping.values())
            mean = exact_mean(values)
            if abs(mean - 1.0) > tolerance:
                raise FormatError(f"{name} weights have mean {mean!r}, expected 1.0")
        rows: dict[str, list[float]] = {}
        for (row, col), value in self.substitution.items():
            if row == col:
                raise FormatError(f"substitution table contains diagonal entry {row!r}")
            rows.setdefault(row, []).append(value)
        for row, values in rows.items():
            mean = exact_mean(values)
            if abs(mean - 1.0) > tolerance:
                raise FormatError(f"substitution row {row!r} has mean {mean!r}, expected 1.0")


def exact_mean(values: Sequence[float]) -> float:
    """fsum(values) / n, order-independent; where the sum overflows, fsum of each value / n."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


@dataclass(frozen=True)
class CostModel:
    """A fully specified distance model: variant, scales, optional weights."""

    variant: str
    scales: ScaleFactors = UNIT_SCALES
    table: WeightTable | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.variant == "unweighted":
            if self.scales != UNIT_SCALES:
                raise ValueError("unweighted model requires unit scale factors")
            if self.table is not None:
                raise ValueError("unweighted model takes no weight table")
        if self.variant == "simple" and self.table is not None:
            raise ValueError("simple model takes no weight table")
        if self.variant == "advanced":
            if self.table is None:
                raise ValueError("advanced model requires a weight table")
            self.table.check_weights()

    @classmethod
    def unweighted(cls) -> "CostModel":
        return cls("unweighted")

    @classmethod
    def simple(cls, scales: ScaleFactors) -> "CostModel":
        return cls("simple", scales)

    @classmethod
    def advanced(cls, scales: ScaleFactors, table: WeightTable) -> "CostModel":
        return cls("advanced", scales, table)


@dataclass
class DistanceBreakdown:
    """The score of one alignment plus everything needed to audit it.

    ``S``/``D``/``I`` are the weighted operation masses (sums of per-phone
    weights over the substituted/deleted/inserted positions); ``S_n``/
    ``D_n``/``I_n`` are the raw operation counts.  ``L`` is the normalized
    distance ``(s*S + d*D + i*I) / N`` where ``N`` is the wake word's phone
    count.  ``alignment`` lists the edit script as tuples shaped
    ``("match", p)``, ``("substitute", p, q)``, ``("delete", p)``,
    ``("insert", q)``; replaying it on the wake word yields the candidate.
    """

    L: float
    S: float
    D: float
    I: float
    S_n: int
    D_n: int
    I_n: int
    N: int
    alignment: list[tuple]


class CostContext:
    """Per-(wake word, model) scoring state reused across many candidates.

    A context caches per-phone weights, never costs: the deletion weight of
    each wake-word position, and the substitution and insertion weights of
    the phones that candidates use, filled on first use (a match weighs 0).
    Missing advanced-table entries fall back to a neutral weight of 1,
    logged once per :class:`WeightTable`, however many contexts read it.
    """

    __slots__ = ("wake", "model", "n", "_del_weights", "_sub_weights", "_ins_weights")

    def __init__(self, wake: PhoneSeq, model: CostModel):
        if not wake:
            raise EmptyWakeWord("wake word has no phones")
        self.wake = tuple(wake)
        self.model = model
        self.n = len(wake)
        self._del_weights = [self._weight("deletion", p) for p in self.wake]
        # One substitution row per wake position, the free match already in.
        self._sub_weights: list[dict[str, float]] = [{p: 0.0} for p in self.wake]
        self._ins_weights: dict[str, float] = {}

    def _weight(self, kind: str, key) -> float:
        """The ``kind`` weight of ``key``: 1.0 outside the advanced model."""
        if self.model.variant != "advanced":
            return 1.0
        return self.model.table.weight(kind, key)

    def _sub_weight(self, position: int, q: str) -> float:
        row = self._sub_weights[position]
        weight = row.get(q)
        if weight is None:
            weight = row[q] = self._weight("substitution", (self.wake[position], q))
        return weight

    def _ins_weight(self, q: str) -> float:
        weight = self._ins_weights.get(q)
        if weight is None:
            weight = self._ins_weights[q] = self._weight("insertion", q)
        return weight

    def best_cost(self, prons: Sequence[PhoneSeq]) -> float:
        """Minimum rewrite cost over a candidate's pronunciation variants."""
        # :meth:`score` of one candidate, kept as a method since perfbench/tracing.py wraps it.
        return float(self.score(PhoneCodes([prons]))[0])

    def score(self, codes: PhoneCodes, keep: np.ndarray | None = None) -> np.ndarray:
        """Minimum rewrite cost of each encoded candidate; ``inf`` where not kept.

        ``keep`` is a boolean mask over the candidates (default: all).  The
        weight lookups, and so the fallback warnings, are those of the
        phones that occur in kept candidates only.
        """
        pron_keep = None if keep is None else np.repeat(keep, codes.counts)
        blocks = []
        occurs = np.zeros(len(codes.phones), dtype=np.intp)
        for positions, block in codes.groups:
            if pron_keep is not None:
                cols = pron_keep[positions]
                positions, block = positions[cols], block[:, cols]
            blocks.append((positions, block))
            occurs += np.bincount(block.ravel(), minlength=len(occurs))
        used = np.flatnonzero(occurs)
        phones = [codes.phones[c] for c in used]
        scales = self.model.scales
        sub = np.zeros((self.n, len(occurs)))
        sub[:, used] = [[scales.s * self._sub_weight(i, q) for q in phones] for i in range(self.n)]
        ins = np.zeros(len(occurs))
        ins[used] = [scales.i * self._ins_weight(q) for q in phones]
        del_costs = [scales.d * w for w in self._del_weights]

        pron_costs = np.full(len(codes.lengths), np.inf)
        for positions, block in blocks:
            subs = (row[block] for row in sub)
            pron_costs[positions] = rewrite_costs(len(positions), ins[block], subs, del_costs)
        return np.minimum.reduceat(pron_costs, codes.first[:-1])


def rewrite_costs(width: int, ins, subs, dels) -> np.ndarray:
    """Rewrite costs of ``width`` lanes at once, one ``(width,)`` vector per DP cell.

    ``ins[j]``, ``subs[i][j]`` (0 on a match) and ``dels[i]`` (a scalar or a
    vector) price inserting candidate phone j, pairing wake phone i with it
    and deleting wake phone i.  Every cell runs into two preallocated
    ``(m+1, width)`` rows and one scratch vector.
    """
    m = len(ins)
    prev = np.zeros((m + 1, width))
    for j in range(m):
        np.add(prev[j], ins[j], out=prev[j + 1])
    cur = np.empty_like(prev)
    alt = np.empty(width)
    for sub_row, del_cost in zip(subs, dels):
        np.add(prev[0], del_cost, out=cur[0])
        for j in range(m):
            cell = cur[j + 1]
            np.add(prev[j], sub_row[j], out=cell)
            np.add(prev[j + 1], del_cost, out=alt)
            np.minimum(cell, alt, out=cell)
            np.add(cur[j], ins[j], out=alt)
            np.minimum(cell, alt, out=cell)
        prev, cur = cur, prev
    return prev[m].copy()  # a copy frees both rows


def align(wake: PhoneSeq, cand: PhoneSeq, model: CostModel) -> DistanceBreakdown:
    """Optimal edit script from ``wake`` to ``cand`` under ``model``.

    Dynamic program over prefix pairs; among equal-cost steps the
    tie-break prefers match over substitute over delete over insert, which
    makes the returned alignment deterministic.
    """
    return _align_best(CostContext(wake, model), (cand,))


def distance_to_wakeword(
    wake: WakeWordSpec, cand_prons: Sequence[PhoneSeq], model: CostModel
) -> DistanceBreakdown:
    """Best-variant distance: the minimum over a candidate's pronunciations.

    Ties keep the lowest variant index.
    """
    if not cand_prons:
        raise NoPronunciation(f"no pronunciations to score against {wake.id!r}")
    return _align_best(CostContext(wake.phones, model), cand_prons)


def _align_best(ctx: CostContext, prons: Sequence[PhoneSeq]) -> DistanceBreakdown:
    """The breakdown of the variant with the smallest ``L``, the first on a tie.

    Every variant runs the scalar recurrence and keeps its rows; only the
    chosen one is backtracked, each step read back from the costs.
    """
    wake, n, scales = ctx.wake, ctx.n, ctx.model.scales
    del_costs = [scales.d * w for w in ctx._del_weights]
    best = None
    for cand in prons:
        ins_costs = [scales.i * ctx._ins_weight(q) for q in cand]
        row = [0.0]
        for ins_cost in ins_costs:
            row.append(row[-1] + ins_cost)
        rows = [row]
        for i, del_cost in enumerate(del_costs):
            sub_costs = [scales.s * ctx._sub_weight(i, q) for q in cand]
            prev = row
            left = prev[0] + del_cost
            row = [left]
            for diag, up, sub_cost, ins_cost in zip(prev, prev[1:], sub_costs, ins_costs):
                cell = diag + sub_cost
                alt = up + del_cost
                if alt < cell:
                    cell = alt
                alt = left + ins_cost
                if alt < cell:
                    cell = alt
                row.append(cell)
                left = cell
            rows.append(row)
        L = row[-1] / n
        if best is None or L < best[0]:
            best = (L, cand, rows)

    # Each step is the first of diagonal, delete and insert that sums to its cell.
    L, cand, rows = best
    steps: list[tuple] = []
    sub_w: list[float] = []
    del_w: list[float] = []
    ins_w: list[float] = []
    i, j = n, len(cand)
    while i or j:
        cell = rows[i][j]
        if i and j and rows[i - 1][j - 1] + scales.s * ctx._sub_weight(i - 1, cand[j - 1]) == cell:
            if wake[i - 1] == cand[j - 1]:
                steps.append(("match", wake[i - 1]))
            else:
                steps.append(("substitute", wake[i - 1], cand[j - 1]))
                sub_w.append(ctx._sub_weight(i - 1, cand[j - 1]))
            i, j = i - 1, j - 1
        elif i and rows[i - 1][j] + del_costs[i - 1] == cell:
            steps.append(("delete", wake[i - 1]))
            del_w.append(ctx._del_weights[i - 1])
            i -= 1
        else:
            steps.append(("insert", cand[j - 1]))
            ins_w.append(ctx._ins_weight(cand[j - 1]))
            j -= 1
    steps.reverse()
    return DistanceBreakdown(
        L=L,
        S=math.fsum(sub_w),
        D=math.fsum(del_w),
        I=math.fsum(ins_w),
        S_n=len(sub_w),
        D_n=len(del_w),
        I_n=len(ins_w),
        N=n,
        alignment=steps,
    )
