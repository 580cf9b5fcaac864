"""Rank-based tuning of the per-operation scale factors.

The objective is built from ranks, not raw distances: for a labeled trigger
we ask where it would place in a full ranking of the vocabulary against its
wake word (competition ranking -- tied candidates share the smallest rank).
A grid point is scored by the worst trigger rank per wake word, summed over
wake words; grid search returns the point minimizing that sum, breaking
ties toward the lexicographically smallest (s, d, i).

The grid (:class:`Grid`) is one axis of values, shared by s, d and i, so
a grid point is three indices into it.  A :class:`LabeledTrigger` holds
its label normalized, so every reduction matches labels as they are.

A trigger's rank at a grid point depends on its wake word, its label and
the point, never on which triggers are being tuned on.  So a tuning run
makes one rank pass per wake word (:class:`TriggerRanks`): every
non-blocked candidate is scored once, and its cost is folded straight
into one int64 rank vector per trigger label.  Memory is O(labels x grid
points) per wake word; candidate costs are never stacked.  The trigger
filter (the minimum of each vector), the grid search (the first argmin of
the summed per-wake worst vectors) and every leave-one-wake-out fold (the
same argmin over the other wake words) are reductions over those vectors.

A pass runs the one kernel, ``distance.rewrite_costs``, with grid points
along its lanes, in three steps:

* The targets.  :func:`_grid_cost` scores each trigger's own candidate at
  every point.
* The lattice.  ``distance.batch_costs``, the driver ranking runs too,
  scores every kept row at the lattice points, every ``STRIDE``-th value
  of each axis.  A lattice point is the lowest corner of its tile, the box
  of points up to the next lattice value on each axis; the pass keeps
  whether each row costs less there than the tile's largest target.
* The live lanes.  :func:`_grid_cost` scores each other candidate at the
  points of its live tiles only, which add ``cost < target``.

This is exact, with no float margin.  An edit costs one IEEE product of
a scale and a weight, both >= 0; products, sums and minima are monotone
in their operands, so a lane's float cost never falls as s, d or i grows.
Every point of a tile therefore costs at least its corner, and where the
corner costs as much as the tile's largest target, the candidate is
counted nowhere in the tile.  Both paths price an edit as ranking does,
the point's s, d or i times the weight ``CostContext.weights`` gives it.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .candidates import Candidate, Vocabulary, normalize_label, rank_candidates
from .distance import (UNIT_SCALES, CostContext, CostModel, ScaleFactors, WeightTable,
                       batch_costs, rewrite_costs)
from .errors import (
    NoTriggers,
    ParseError,
    TooFewFolds,
    UnknownLabel,
    UnknownWakeWord,
)
from .lexicon import WakeWordSpec
from .readers import text_integer, tsv_rows

__all__ = [
    "MAX_GRID_POINTS",
    "Grid",
    "LabeledTrigger",
    "TriggerRanks",
    "TuningResult",
    "cross_validate",
    "filter_triggers",
    "format_tuning_report",
    "grid_search",
    "load_trigger_labels",
]

log = logging.getLogger(__name__)

_TRIGGER_HEADER = ["wake_id", "trigger_label", "times_triggered"]

# A rank pass holds float vectors of this length: one price per edit and
# two DP rows of m+1 for an m-phone row, and one per trigger label; the cap
# keeps a mistyped step from exhausting memory.
# The "extended" preset has 29,791 points.
MAX_GRID_POINTS = 250_000

STRIDE = 4  # lattice points are every STRIDE-th axis value; 2 and 5 ran slower


@dataclass(frozen=True)
class LabeledTrigger:
    """A phrase observed to trigger a wake word, with an optional count.

    The label is kept normalized, as vocabulary labels are matched; it may not be empty."""

    wake_id: str
    trigger_label: str
    times_triggered: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "trigger_label", normalize_label(self.trigger_label))
        if not self.trigger_label:
            raise ValueError("empty trigger label")


def load_trigger_labels(lines: Iterable[str]) -> list[LabeledTrigger]:
    """Parse the tab-separated trigger-label format (header required)."""
    triggers = []
    for lineno, parts in tsv_rows(lines, _TRIGGER_HEADER, "trigger-label"):
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 2 or 3 tab-separated fields, got {len(parts)}", lineno)
        count = parts[2].strip() if len(parts) == 3 else ""
        try:
            times = text_integer(count, "times_triggered") if count else None
            triggers.append(LabeledTrigger(parts[0].strip(), parts[1], times))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return triggers


@dataclass(frozen=True)
class Grid:
    """An inclusive search grid over the three scale factors: each of the
    s, d and i axes runs from ``lo`` to ``hi`` in steps of ``step``."""

    lo: float = 0.0
    hi: float = 1.0
    step: float = 0.05

    @classmethod
    def default(cls) -> "Grid":
        """The standard [0, 1] grid with step 0.05 (21 values per axis)."""
        return cls()

    @classmethod
    def extended(cls) -> "Grid":
        """A wider [0, 1.5] grid for optima that sit past 1."""
        return cls(0.0, 1.5, 0.05)

    def axis_count(self) -> int:
        """The number of values on an axis, worked out without listing them.

        Raises ``ValueError`` for a non-finite bound or step, a step <= 0,
        ``lo < 0`` (scale factors are non-negative), ``hi < lo``, or an axis
        longer than :data:`MAX_GRID_POINTS`.
        """
        lo, hi, step = self.lo, self.hi, self.step
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or lo < 0 or hi < lo:
            raise ValueError(f"bad grid axis: lo={lo} hi={hi} step={step}")
        span = (hi - lo) / step
        if span >= MAX_GRID_POINTS:  # also catches an overflow to inf
            raise ValueError(f"grid axis lo={lo} hi={hi} step={step} exceeds "
                             f"the cap of {MAX_GRID_POINTS} grid points")
        return int(math.floor(span + 1e-9)) + 1

    def axis_values(self) -> list[float]:
        return [round(self.lo + k * self.step, 12) for k in range(self.axis_count())]

    def point_count(self) -> int:
        """Grid size; raises ``ValueError`` for a bad axis or a grid over
        :data:`MAX_GRID_POINTS`."""
        count = self.axis_count() ** 3
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid has {count} points, over the cap of {MAX_GRID_POINTS}")
        return count

    def points(self) -> Iterable[ScaleFactors]:
        """All grid points in lexicographic (s, d, i) order."""
        return itertools.starmap(ScaleFactors, itertools.product(self.axis_values(), repeat=3))


@dataclass
class TuningResult:
    best: ScaleFactors
    objective: int
    per_wake_worst_rank: dict[str, int]
    grid_points_evaluated: int


# ---------------------------------------------------------------------------
# Vectorized evaluation over a whole grid.


def _grid_arrays(axis: Sequence[float]) -> list[np.ndarray]:
    """The s, d and i value of each point of the grid on ``axis``, in lexicographic order."""
    return [values.ravel() for values in np.meshgrid(axis, axis, axis, indexing="ij")]


def _grid_cost(rows: Sequence[Sequence[int]], scales, weights) -> np.ndarray:
    """A candidate's minimum cost over its code ``rows`` at the grid points whose
    s, d and i vectors are ``scales``, an edit priced by its scale times its
    weight in ``weights`` (``CostContext.weights``)."""
    # Gathers each row's weights, then prices them: at one candidate's lanes,
    # pricing every used code as ``batch_costs`` does would take about 6x the
    # multiplies (39 codes against 5.5 phones a candidate on tune-loocv).
    s, d, i = scales
    sub, ins, dels = weights
    del_vecs = [d * w for w in dels]
    best = None
    for row in rows:
        # One wake position's prices at a time, never all n x m vectors at once.
        subs = (np.multiply.outer(weight[row], s) for weight in sub)
        cost = rewrite_costs(np.multiply.outer(ins[row], i), subs, del_vecs)
        best = cost if best is None else np.minimum(best, cost, out=best)
    return best


def _wake_map(wakes: Sequence[WakeWordSpec]) -> dict[str, WakeWordSpec]:
    return {w.id: w for w in wakes}


def _labels_by_wake(
    triggers: Iterable[LabeledTrigger],
    wake_map: Mapping[str, WakeWordSpec] | None = None,
) -> dict[str, list[str]]:
    """wake id -> trigger labels, in first-appearance order.

    With ``wake_map``, a trigger whose wake id is not in it raises
    :class:`UnknownWakeWord`.
    """
    by_wake: dict[str, list[str]] = {}
    for trigger in triggers:
        if wake_map is not None and trigger.wake_id not in wake_map:
            raise UnknownWakeWord(f"no wake word configured for id {trigger.wake_id!r}")
        by_wake.setdefault(trigger.wake_id, []).append(trigger.trigger_label)
    return by_wake


class TriggerRanks:
    """Competition rank of each labeled trigger at every point of a grid.

    Holds, per (wake id, trigger label), an int64 rank vector over the grid
    in lexicographic (s, d, i) order.  A wake word's vectors come from one
    scoring pass, made the first time :meth:`of` asks for that wake word:
    the pass scores each non-blocked candidate once, the triggers' own
    candidates first, and folds every cost into the rank counts as it
    goes, so memory stays O(labels x grid points).  The reductions
    (:func:`filter_triggers`, :func:`grid_search`, :func:`cross_validate`)
    accept one shared instance, built from the same vocabulary, wake
    words, grid, variant, table and blocklists, and from a superset of
    their triggers.
    """

    def __init__(
        self,
        triggers: Iterable[LabeledTrigger],
        vocab: Sequence[Candidate],
        wakes: Sequence[WakeWordSpec],
        grid: Grid,
        variant: str = "simple",
        table: WeightTable | None = None,
        blocklists: Mapping[str, Iterable[str]] | None = None,
    ):
        # Unit scales: the pass reads the model's weights, the grid the scales.
        self.model = CostModel(variant, UNIT_SCALES, table if variant == "advanced" else None)
        self.vocab = Vocabulary.of(vocab)
        self.wakes = _wake_map(wakes)
        self.blocklists = blocklists or {}
        self.labels = _labels_by_wake(triggers)
        axis = grid.axis_values()
        self._arrays = _grid_arrays(axis)
        self._lattice = _grid_arrays(axis[::STRIDE])
        tile = np.arange(len(axis)) // STRIDE  # the lattice value below each axis value
        self._tiles = np.ravel_multi_index(np.ix_(tile, tile, tile), (tile[-1] + 1,) * 3).ravel()
        self._vectors: dict[str, dict[str, np.ndarray]] = {}

    def of(self, wake_id: str) -> dict[str, np.ndarray]:
        """label -> rank vector for every trigger label of ``wake_id``."""
        vectors = self._vectors.get(wake_id)
        if vectors is None:
            vectors = self._vectors[wake_id] = self._rank_pass(self.wakes[wake_id])
        return vectors

    def _rank_pass(self, wake: WakeWordSpec) -> dict[str, np.ndarray]:
        vocab = self.vocab
        keep = vocab.keep_mask(wake, self.blocklists.get(wake.id, ()))
        kept = np.flatnonzero(keep).tolist()
        # A label's target is the first kept candidate carrying it.
        wanted = set(self.labels.get(wake.id, ()))
        target_of: dict[str, int] = {}
        for idx in kept:
            label = vocab.normalized_labels[idx]
            if label in wanted and label not in target_of:
                target_of[label] = idx
        missing = wanted - target_of.keys()
        if missing:
            blocked = missing.intersection(vocab.normalized_labels)
            problems = [f"labels {what} for {wake.id!r}: {sorted(labels)}"
                        for what, labels in (("blocked", blocked),
                                             ("not in vocabulary", missing - blocked)) if labels]
            raise UnknownLabel("; ".join(problems))
        if not target_of:
            return {}
        codes = vocab.codes
        groups = codes.kept_groups(keep)
        weights = CostContext(wake.phones, self.model).weights(codes.phones, groups)
        labels = list(target_of)
        targets = np.array([_grid_cost(codes.rows(target_of[lbl]), self._arrays, weights)
                            for lbl in labels])
        counts = np.ones(targets.shape, dtype=np.int64)
        for cost in targets:
            counts += cost < targets
        # The largest target in each tile, then whether each kept row costs less at its corner.
        tile_max = np.full(len(self._lattice[0]), -np.inf)
        np.maximum.at(tile_max, self._tiles, targets.max(0))
        live = np.zeros((len(codes.lengths), len(tile_max)), dtype=bool)
        for positions, cost in batch_costs(groups, self._lattice, weights):
            live[positions] = cost < tile_max
        first = codes.first.tolist()
        for idx in np.setdiff1d(kept, list(target_of.values())).tolist():
            tiles = live[first[idx] : first[idx + 1]].any(0)
            if not tiles.any():
                continue
            lanes = np.flatnonzero(tiles[self._tiles])
            cost = np.full(len(self._tiles), np.inf)  # a pruned lane undercuts no target
            cost[lanes] = _grid_cost(codes.rows(idx), [v[lanes] for v in self._arrays], weights)
            counts += cost < targets
        return dict(zip(labels, counts))


def grid_search(
    triggers: Sequence[LabeledTrigger],
    vocab: Sequence[Candidate],
    wakes: Sequence[WakeWordSpec],
    grid: Grid,
    variant: str = "simple",
    table: WeightTable | None = None,
    blocklists: Mapping[str, Iterable[str]] | None = None,
    *,
    ranks: TriggerRanks | None = None,
) -> TuningResult:
    """Exhaustive search for the scale factors with the best rank objective.

    The objective at each grid point is the sum over wake words of the
    worst rank among that wake word's ``triggers``; the first minimum in
    (s, d, i) order wins.  ``ranks`` is built here when not given.
    """
    if not triggers:
        raise NoTriggers("no triggers to tune on")
    if ranks is None:
        ranks = TriggerRanks(triggers, vocab, wakes, grid, variant, table, blocklists)
    by_wake = _labels_by_wake(triggers, _wake_map(wakes))
    grid_size = grid.point_count()
    objective = np.zeros(grid_size, dtype=np.int64)
    worst_vecs: dict[str, np.ndarray] = {}
    for wake_id, labels in by_wake.items():
        vectors = ranks.of(wake_id)
        worst = np.maximum.reduce([vectors[lbl] for lbl in labels])
        worst_vecs[wake_id] = worst
        objective += worst

    best_idx = int(np.argmin(objective))  # first occurrence = lexicographic tie-break
    axis = grid.axis_values()
    best = ScaleFactors(*(axis[i] for i in np.unravel_index(best_idx, (len(axis),) * 3)))
    return TuningResult(
        best=best,
        objective=int(objective[best_idx]),
        per_wake_worst_rank={w: int(v[best_idx]) for w, v in worst_vecs.items()},
        grid_points_evaluated=grid_size,
    )


def filter_triggers(
    triggers: Sequence[LabeledTrigger],
    vocab: Sequence[Candidate],
    wakes: Sequence[WakeWordSpec],
    grid: Grid,
    threshold: int = 500,
    variant: str = "simple",
    table: WeightTable | None = None,
    blocklists: Mapping[str, Iterable[str]] | None = None,
    *,
    ranks: TriggerRanks | None = None,
) -> list[LabeledTrigger]:
    """Keep triggers the model can rank at or under ``threshold`` somewhere
    on the grid; order is preserved.  ``ranks`` is built here when not
    given."""
    if ranks is None:
        ranks = TriggerRanks(triggers, vocab, wakes, grid, variant, table, blocklists)
    best: dict[tuple[str, str], int] = {}
    for wake_id, labels in _labels_by_wake(triggers, _wake_map(wakes)).items():
        vectors = ranks.of(wake_id)
        for lbl in labels:
            best[(wake_id, lbl)] = int(vectors[lbl].min())
    kept = [t for t in triggers if best[(t.wake_id, t.trigger_label)] <= threshold]
    if len(kept) < len(triggers):
        log.info(
            "trigger filter kept %d of %d triggers (threshold %s)",
            len(kept), len(triggers), threshold,
        )
    return kept


def cross_validate(
    per_wake_triggers: Mapping[str, Sequence[LabeledTrigger]],
    vocab: Sequence[Candidate],
    wakes: Sequence[WakeWordSpec],
    grid: Grid,
    variant: str = "simple",
    table: WeightTable | None = None,
    k: int = 100,
    seed: int = 0,
    blocklists: Mapping[str, Iterable[str]] | None = None,
    *,
    ranks: TriggerRanks | None = None,
) -> dict[str, int]:
    """Leave-one-wake-out evaluation: tune on the others, count hits.

    For each wake word, scale factors are tuned on every *other* wake
    word's triggers, the held-out wake word's vocabulary is ranked top-``k``
    with those factors, and the result counts how many of its triggers made
    the list.  The unweighted variant skips tuning (it has no parameters).
    Every fold's search reduces the same ``ranks``, built here when not
    given.
    """
    if len(per_wake_triggers) < 2:
        raise TooFewFolds("cross-validation needs at least two wake words")
    wake_map = _wake_map(wakes)
    blocklists = blocklists or {}
    if ranks is None and variant != "unweighted":
        everyone = [t for ts in per_wake_triggers.values() for t in ts]
        ranks = TriggerRanks(everyone, vocab, wakes, grid, variant, table, blocklists)
    hits: dict[str, int] = {}
    for fold, wake_id in enumerate(per_wake_triggers):
        if wake_id not in wake_map:
            raise UnknownWakeWord(f"no wake word configured for id {wake_id!r}")
        held_out = per_wake_triggers[wake_id]
        training = [t for other, ts in per_wake_triggers.items() if other != wake_id for t in ts]
        model = CostModel.unweighted()
        if variant != "unweighted":
            tuned = grid_search(training, vocab, wakes, grid, variant, table, blocklists,
                                ranks=ranks)
            model = CostModel(variant, tuned.best, table if variant == "advanced" else None)
        ranked = rank_candidates(
            vocab, wake_map[wake_id], model, k, seed + fold,
            blocklist=blocklists.get(wake_id, ()),
        )
        top = {normalize_label(item.candidate.label) for item in ranked.items}
        hits[wake_id] = sum(1 for t in held_out if t.trigger_label in top)
    return hits


def format_tuning_report(
    result: TuningResult,
    cross_validation: Mapping[str, int] | None = None,
    filtered: tuple[int, int] | None = None,
) -> str:
    """Human-readable tab-separated tuning report."""
    lines = [
        f"grid_points_evaluated\t{result.grid_points_evaluated}",
        f"best_scales\ts={result.best.s:g}\td={result.best.d:g}\ti={result.best.i:g}",
        f"objective\t{result.objective}",
        "[per_wake_worst_rank]",
    ]
    for wake_id in sorted(result.per_wake_worst_rank):
        lines.append(f"{wake_id}\t{result.per_wake_worst_rank[wake_id]}")
    if filtered is not None:
        lines.append("[trigger_filter]")
        lines.append(f"kept\t{filtered[0]}\tof\t{filtered[1]}")
    if cross_validation is not None:
        lines.append("[cross_validation_hits]")
        for wake_id in sorted(cross_validation):
            lines.append(f"{wake_id}\t{cross_validation[wake_id]}")
    return "\n".join(lines) + "\n"
