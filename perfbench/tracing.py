"""Per-module spans recorded from outside the program.

:func:`installed` wraps the public entry points of every triggercraft
module inside the running process, and puts the originals back when its
``with`` block ends; no program file is edited.  Entry points called once
per job or file get a span each (name, start, end, parent, job id).
Entry points called once per candidate or per log record are aggregated
into their parent span, so that tracing them stays cheap.  Counts are taken at the same boundaries, from
the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Per-layer metrics, in the order they are reported: (name, unit).
PER_LAYER = [
    ("lexicon.load_dictionary_s", "s"),
    ("lexicon.phrase_phones_s", "s"),
    ("lexicon.words", "count"),
    ("lexicon.prons", "count"),
    ("weights.load_weight_table_s", "s"),
    ("candidates.dictionary_candidates_s", "s"),
    ("candidates.build_blocklist_s", "s"),
    ("candidates.extract_ngrams_s", "s"),
    ("candidates.rank_candidates_s", "s"),
    ("candidates.export_manifest_s", "s"),
    ("candidates.scored", "count"),
    ("candidates.blocked", "count"),
    ("candidates.ngrams_dropped_oov", "count"),
    ("candidates.tie_pool", "count"),
    ("distance.score_s", "s"),
    ("distance.align_s", "s"),
    ("distance.contexts", "count"),
    ("distance.dp_cells", "count"),
    ("distance.cells_per_s", "1/s"),
    ("tuning.filter_triggers_s", "s"),
    ("tuning.grid_search_s", "s"),
    ("tuning.cross_validate_s", "s"),
    ("tuning.grid_search_calls", "count"),
    ("tuning.rank_calls", "count"),
    ("tuning.point_cands_per_s", "1/s"),
    ("harness.parse_events_s", "s"),
    ("harness.parse_verification_s", "s"),
    ("harness.parse_adjudication_s", "s"),
    ("harness.join_s", "s"),
    ("harness.summarize_s", "s"),
    ("harness.windows_s", "s"),
    ("harness.format_s", "s"),
    ("harness.records", "count"),
    ("harness.unverified", "count"),
    ("harness.orphans", "count"),
    ("workbench.load_config_s", "s"),
    ("workbench.format_s", "s"),
    ("workbench.write_s", "s"),
    ("workbench.self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bookkeeping_s", "s"),
]

# Spans that run during set-up; their metrics are per set-up, all others per job.
SETUP_LAYERS = ("lexicon.load_dictionary", "weights.load_weight_table", "workbench.load_config")
JOB = "workbench.self"
SETUP = "workbench.setup"
BOOKKEEPING = "trace.bookkeeping"

_TOKEN = re.compile(r"[a-z']+")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child", "leaves")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.child = 0.0  # time covered by child spans and aggregated calls
        self.leaves: dict[str, list] = {}  # name -> [seconds, calls]
        self.end = None
        self.start = perf_counter()


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: str | None = None

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, self.job))
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span.end = perf_counter()
        if self.stack:
            self.spans[self.stack[-1]].child += span.end - span.start

    def add_leaf(self, name: str, seconds: float) -> None:
        span = self.spans[self.stack[-1]]
        span.child += seconds
        entry = span.leaves.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    def within(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self.stack)

    @contextmanager
    def root(self, name: str, job: str):
        """Every span opened inside belongs to ``job``."""
        self.job = job
        self.open(name)
        try:
            yield
        finally:
            self.close()
            self.job = None

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds per layer name, summed over job spans and set-up spans."""
        in_jobs: dict[str, float] = defaultdict(float)
        in_setup: dict[str, float] = defaultdict(float)
        for span in self.spans:
            target = in_setup if span.job.startswith("setup") else in_jobs
            target[span.name] += span.end - span.start - span.child
            for name, (seconds, _) in span.leaves.items():
                target[name] += seconds
        return in_jobs, in_setup

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {name: getattr(span, name) for name in Span.__slots__}
                fh.write(json.dumps(record) + "\n")

    def per_layer(self, jobs: int, setups: int, untraced_job_s: float) -> dict[str, tuple]:
        in_jobs, in_setup = self.self_times()
        traced_job_s = sum(
            s.end - s.start for s in self.spans if s.name == JOB and s.parent is None
        ) / jobs
        values = {}
        for name, unit in PER_LAYER:
            stem = name[:-2]
            if unit == "s":
                if stem in SETUP_LAYERS:
                    values[name] = in_setup.get(stem, 0.0) / setups
                else:
                    values[name] = in_jobs.get(stem, 0.0) / jobs
            elif unit == "count":
                values[name] = self.counts[name] / (setups if name.startswith("lexicon.") else jobs)
        score = in_jobs.get("distance.score", 0.0)
        values["distance.cells_per_s"] = self.counts["distance.dp_cells"] / score if score else 0.0
        search = in_jobs.get("tuning.grid_search", 0.0)
        values["tuning.point_cands_per_s"] = self.counts["tuning.point_cands"] / search if search else 0.0
        values["trace.job_s"] = traced_job_s
        values["trace.untraced_job_s"] = untraced_job_s
        values["trace.overhead_s"] = traced_job_s - untraced_job_s
        return {name: (values[name], unit) for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Counts, taken from the arguments and results of wrapped calls.


def _normalize(label: str) -> str:
    return " ".join(label.lower().split())


def _count_dictionary(tracer, args, result):
    tracer.counts["lexicon.words"] += len(result)
    tracer.counts["lexicon.prons"] += sum(len(v) for v in result.entry_map().values())


def _count_ngrams(tracer, args, result):
    lines, n = args["transcripts"], args["n"]
    if not isinstance(lines, (list, tuple)):
        return
    grams = set()
    for line in lines:
        tokens = [t for t in _TOKEN.findall(line.lower()) if t.strip("'")]
        grams.update(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    tracer.counts["candidates.ngrams_dropped_oov"] += len(grams) - len(result)


def _kept(vocab, wake, extra):
    """Candidates not blocked for ``wake``: its text, its explicit list and ``extra``."""
    blocked = {_normalize(b) for b in (wake.text, *wake.explicit_blocklist, *extra)}
    return [c for c in vocab if _normalize(c.label) not in blocked]


def _count_rank(tracer, args, result):
    wake, vocab = args["wake"], args["vocab"]
    kept = _kept(vocab, wake, args["blocklist"])
    tracer.counts["candidates.scored"] += len(kept)
    tracer.counts["candidates.blocked"] += len(vocab) - len(kept)
    tracer.counts["candidates.tie_pool"] += result.boundary_pool_size
    tracer.counts["distance.dp_cells"] += len(wake.phones) * sum(
        len(p) for c in kept for p in c.prons
    )
    if tracer.within("tuning."):
        tracer.counts["tuning.rank_calls"] += 1


def _count_grid_search(tracer, args, result):
    wakes = {w.id: w for w in args["wakes"]}
    blocklists = args["blocklists"] or {}
    pairs = sum(
        len(_kept(args["vocab"], wakes[wake_id], blocklists.get(wake_id, ())))
        for wake_id in {t.wake_id for t in args["triggers"]}
    )
    tracer.counts["tuning.grid_search_calls"] += 1
    tracer.counts["tuning.point_cands"] += result.grid_points_evaluated * pairs


def _count_records(tracer, args, result):
    tracer.counts["harness.records"] += len(result)


def _count_join(tracer, args, result):
    matched = len(result)
    adjudicated = sum(1 for a in result if a.adjudication is not None)
    tracer.counts["harness.unverified"] += len(args["events"]) - matched
    tracer.counts["harness.orphans"] += (
        len(args["verifications"]) - matched + len(args["adjudications"]) - adjudicated
    )


# ---------------------------------------------------------------------------
# Wrapping.

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _targets(tc):
    """(owner, attribute, layer name, kind, counter) for every wrapped entry point."""
    cand, dist, harn = tc.candidates, tc.distance, tc.harness
    lex, tune, wb = tc.lexicon, tc.tuning, tc.workbench
    return [
        (wb, "load_config", "workbench.load_config", SPAN, None),
        (lex, "load_dictionary", "lexicon.load_dictionary", SPAN, _count_dictionary),
        (lex, "phrase_phones", "lexicon.phrase_phones", LEAF, None),
        (tc.weights, "load_weight_table", "weights.load_weight_table", SPAN, None),
        (cand, "dictionary_candidates", "candidates.dictionary_candidates", SPAN, None),
        (cand, "build_blocklist", "candidates.build_blocklist", SPAN, None),
        (cand, "extract_ngrams", "candidates.extract_ngrams", SPAN, _count_ngrams),
        (cand, "rank_candidates", "candidates.rank_candidates", SPAN, _count_rank),
        (cand, "export_manifest", "candidates.export_manifest", SPAN, None),
        (dist.CostContext, "__init__", "distance.contexts", COUNT, None),
        (dist.CostContext, "best_cost", "distance.score", LEAF, None),
        (dist, "distance_to_wakeword", "distance.align", LEAF, None),
        (tune, "filter_triggers", "tuning.filter_triggers", SPAN, None),
        (tune, "grid_search", "tuning.grid_search", SPAN, _count_grid_search),
        (tune, "cross_validate", "tuning.cross_validate", SPAN, None),
        (harn, "parse_event_log", "harness.parse_events", SPAN, _count_records),
        (harn, "parse_verification_log", "harness.parse_verification", SPAN, _count_records),
        (harn, "parse_adjudication_log", "harness.parse_adjudication", SPAN, _count_records),
        (harn, "join_records", "harness.join", SPAN, _count_join),
        (harn, "summarize", "harness.summarize", SPAN, None),
        (harn, "verification_window", "harness.windows", LEAF, None),
        (harn, "format_summary", "harness.format", SPAN, None),
        (wb, "format_ranked_list", "workbench.format", SPAN, None),
        (wb, "format_manifest", "workbench.format", SPAN, None),
        (wb.OutputWriter, "write", "workbench.write", SPAN, None),
    ]


def _wrap(tracer: Tracer, fn, name: str, kind: str, counter):
    if kind == COUNT:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    if kind == LEAF:
        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_leaf(name, perf_counter() - start)
        return leaf

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def span(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if counter is not None:
            start = perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer, bound.arguments, result)
            tracer.add_leaf(BOOKKEEPING, perf_counter() - start)
        return result
    return span


@contextmanager
def installed(tracer: Tracer, tc):
    """Wrap every target in every triggercraft namespace that refers to it,
    for the ``with`` block only; the originals are put back after it."""
    modules = [m for n, m in sys.modules.items() if n == "triggercraft" or n.startswith("triggercraft.")]
    patched = []
    try:
        for owner, attr, name, kind, counter in _targets(tc):
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, name, kind, counter)
            if inspect.isclass(owner):
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if vars(module).get(attr) is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
