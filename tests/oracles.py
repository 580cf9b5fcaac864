"""Independent reference implementations used to cross-check the package.

The centerpiece is an exhaustive edit-script enumerator: it lists *every*
monotone rewrite script between two phone sequences, prices each script by
folding its step costs left to right (the same association order the
production dynamic program uses), and takes the minimum.  Because both
sides perform identical IEEE-754 additions in identical order, the oracle
and the production scorer must agree bit for bit, not just approximately.

Everything here is deliberately slow and simple; nothing is shared with
the package under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from triggercraft.distance import CostModel, PhoneCodes, ScaleFactors, WeightTable

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


def one_at_a_time(score):
    """``CostContext.score`` run on a batch of one candidate per call.

    Patched over the bulk method, it makes any caller score every kept
    candidate alone, from a fresh encoding of its own pronunciations, so
    outputs can be compared against bulk scoring.
    """

    def scored_singly(ctx, codes, keep=None):
        prons = [None] * int(codes.counts.sum())
        for positions, block in codes.groups:
            for position, column in zip(positions, block.T):
                prons[position] = tuple(codes.phones[c] for c in column)
        starts = np.cumsum(codes.counts) - codes.counts
        costs = np.full(len(codes.counts), np.inf)
        for idx, (start, count) in enumerate(zip(starts, codes.counts)):
            if keep is None or keep[idx]:
                costs[idx] = score(ctx, PhoneCodes([prons[start : start + count]]))[0]
        return costs

    return scored_singly
