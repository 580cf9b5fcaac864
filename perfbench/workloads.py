"""Seeded input generators and output checks for the benchmark workloads.

Each workload writes its inputs (config, dictionary, wake words, weight
table, corpora or logs) into a directory from a seed, and returns the list
of CLI jobs to run on them plus a check for every job's output files.  The
checks use only what the generator planted and a short independent edit
distance, never the program's own code, so a wrong output cannot check
itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

VOWELS = (
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY", "IH", "IY",
    "OW", "OY", "UH", "UW",
)
CONSONANTS = (
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N",
    "NG", "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
)
SYMBOLS = tuple(sorted(VOWELS + CONSONANTS))

# The four wake words of the test fixtures (2 to 8 phones).
WAKES = (
    {"id": "VA1", "text": "Alexa", "phones": ["AH", "L", "EH", "K", "S", "AH"], "blocklist": []},
    {"id": "VA2", "text": "Computer", "phones": ["K", "AH", "M", "P", "Y", "UW", "T", "ER"],
     "blocklist": ["computed"]},
    {"id": "VA3", "text": "Echo", "phones": ["EH", "K", "OW"], "blocklist": []},
    {"id": "VA4", "text": "Hey", "phones": ["HH", "EY"], "blocklist": []},
)
WAKE_BY_ID = {w["id"]: w for w in WAKES}
WAKE_PHONES = sorted({p for w in WAKES for p in w["phones"]})
SCALES = (1.46, 1.3, 0.24)
UNIT = (1.0, 1.0, 1.0)
MAX_PHRASE_VARIANTS = 16
REVIEW_LABELS = ("accidental", "wake-word-present", "related-word")
BINS = ("none", "low", "medium", "high")


@dataclass
class Job:
    """One CLI command: its arguments after the global options."""

    key: str  # names the job in the digest reference
    argv: list[str]
    work: int  # items the job processes, counted from the inputs
    outputs: list[str]  # files it must write


@dataclass
class Prepared:
    """A workload's generated inputs, ready to run."""

    config: Path
    resources: tuple[str, ...]  # config resources its jobs use
    jobs: list[Job]  # one round: every distinct job once
    check: Callable[[Job, Path], list[str]]
    work_unit: str
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Independent reference distance.


class RefScorer:
    """Weighted edit distance from a wake word, written apart from the program.

    It performs the same float operations in the same order as the
    program's dynamic program (cumulative insertions along the first row,
    cumulative deletions down the first column, then the minimum of
    diagonal + substitution, up + deletion, left + insertion), so its
    costs are bit-identical to a correct implementation.
    """

    def __init__(self, wake, scales, table=None):
        self.wake = tuple(wake)
        s, d, i = scales
        dele, ins, sub = table if table is not None else ({}, {}, {})
        self.del_costs = [d * dele.get(p, 1.0) for p in self.wake]
        self.ins_cost = {q: i * ins.get(q, 1.0) for q in SYMBOLS}
        self.sub_cost = [
            {q: 0.0 if q == p else s * sub.get((p, q), 1.0) for q in SYMBOLS}
            for p in self.wake
        ]

    def cost(self, cand) -> float:
        ins = [self.ins_cost[q] for q in cand]
        prev = [0.0]
        for c in ins:
            prev.append(prev[-1] + c)
        for row, d in zip(self.sub_cost, self.del_costs):
            cur = [prev[0] + d]
            for j, q in enumerate(cand):
                cur.append(min(prev[j] + row[q], prev[j + 1] + d, cur[j] + ins[j]))
            prev = cur
        return prev[-1]

    def best(self, prons) -> float:
        return min(self.cost(p) for p in prons)

    def distance(self, prons) -> float:
        return self.best(prons) / len(self.wake)


def _contiguous_piece(pron, wake) -> bool:
    k = len(pron)
    return any(tuple(wake[i : i + k]) == tuple(pron) for i in range(len(wake) - k + 1))


def _blocklist(wake, words) -> set[str]:
    """Labels the program must keep out of ``wake``'s lists.

    ``words`` maps lower-case dictionary words to their pronunciations.
    """
    blocked = {wake["text"].lower()} | {b.lower() for b in wake["blocklist"]}
    phones = wake["phones"]
    blocked.update(w for w, prons in words.items() if any(_contiguous_piece(p, phones) for p in prons))
    return blocked


def _sections(text: str, top: str | None = None) -> dict[str, list[str]]:
    """Split ``[name]``-headed text into its sections' lines."""
    sections: dict[str, list[str]] = {}
    current = sections.setdefault(top, []) if top else None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif current is not None:
            current.append(line)
    return sections


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Shared inputs.


def _write_common(root: Path, rng: random.Random, weighted: bool) -> tuple | None:
    (root / "wake_words.json").write_text(json.dumps(list(WAKES), indent=1) + "\n")
    if not weighted:
        return None

    def mean_one(keys):
        raw = {k: rng.uniform(0.3, 1.7) for k in keys}
        mean = math.fsum(raw.values()) / len(raw)
        return {k: v / mean for k, v in raw.items()}

    dele = mean_one(WAKE_PHONES)
    ins = mean_one(SYMBOLS)
    sub = {}
    for p in WAKE_PHONES:
        row = mean_one([q for q in SYMBOLS if q != p])
        sub.update({(p, q): v for q, v in row.items()})
    lines = ["[deletion]"] + [f"{p}\t{dele[p]!r}" for p in sorted(dele)]
    lines += ["[insertion]"] + [f"{q}\t{ins[q]!r}" for q in sorted(ins)]
    lines += ["[substitution]"] + [f"{p}\t{q}\t{sub[p, q]!r}" for p, q in sorted(sub)]
    (root / "weights.tsv").write_text("\n".join(lines) + "\n")
    return dele, ins, sub


def _write_config(root: Path, **entries) -> Path:
    config = {"dictionary": "dict.txt", "wake_words": "wake_words.json", "out_dir": "out"}
    config.update(entries)
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def _write_dictionary(root: Path, words: dict[str, list[tuple]]) -> None:
    with open(root / "dict.txt", "w", encoding="utf-8") as fh:
        for word, prons in words.items():
            for index, pron in enumerate(prons, 1):
                name = word.upper() if index == 1 else f"{word.upper()}({index})"
                fh.write(f"{name}  {' '.join(pron)}\n")


def _random_pron(rng, lo, hi):
    return tuple(rng.choices(SYMBOLS, k=rng.randint(lo, hi)))


def _letters(rng, lo, hi):
    return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# rank: list checks shared by both rank workloads.


def _read_rank_list(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    head = dict(part.split("=", 1) for part in lines[0][2:].split())
    rows = [line.split("\t") for line in lines[3:]]
    return head, lines[2], rows


def _check_ranked(path, model, scorer, prons_of, candidates, blocked, k, rng, sample) -> list[str]:
    """Check one ranked list against the reference scorer.

    ``candidates`` is every label the list was drawn from; ``prons_of``
    gives a label's pronunciations.
    """
    head, header, rows = _read_rank_list(path)
    eligible = [c for c in candidates if c not in blocked]
    errors = []
    if header != "rank\tlabel\tL\tS_n\tD_n\tI_n" or head.get("model") != model:
        errors.append(f"{path.name}: bad header {header!r} or model {head.get('model')}")
    if head.get("k") != str(k) or len(rows) != min(k, len(eligible)):
        errors.append(f"{path.name}: k={head.get('k')} with {len(rows)} rows, expected {k}")
    if [r[0] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        errors.append(f"{path.name}: ranks do not run 1..{len(rows)}")
    listed = set()
    distances = []
    for row in rows:
        label, shown = row[1], row[2]
        prons = prons_of(label)
        if label in blocked or prons is None:
            errors.append(f"{path.name}: blocked or unknown label {label!r} listed")
            continue
        listed.add(label)
        dist = scorer.distance(prons)
        distances.append(dist)
        if f"{dist:.12g}" != shown:
            errors.append(f"{path.name}: {label!r} has L={shown}, reference {dist:.12g}")
    if any(a > b for a, b in zip(distances, distances[1:])):
        errors.append(f"{path.name}: L decreases down the list")
    if distances:
        boundary = max(distances)
        pool = [c for c in eligible if c not in listed]
        for label in rng.sample(pool, min(sample, len(pool))):
            dist = scorer.distance(prons_of(label))
            if dist < boundary:
                errors.append(f"{path.name}: unlisted {label!r} at {dist!r} beats the boundary")
    return errors


def _check_manifest(path: Path, rank_path: Path) -> list[str]:
    labels = [line.split("\t")[1] for line in rank_path.read_text().splitlines()[3:]]
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    if [r[0] for r in rows] != [label for label in labels for _ in range(10)]:
        return [f"{path.name}: rows do not list each ranked label for ten voices"]
    return []


# ---------------------------------------------------------------------------
# rank-dict


SECOND_VARIANT_SHARE = 0.1  # of rank-dict words


def gen_rank_dict(root: Path, seed: int, words: int = 130_000, k: int = 100,
                  sample: int = 200) -> Prepared:
    """`rank --model advanced` over a large synthetic dictionary.

    Words are ``SYN<n>`` with 2 to 9 random phones, as in the 130k-word
    budget test, plus a seeded share of second variants.
    """
    rng = random.Random(f"rank-dict:{seed}")
    table = _write_common(root, rng, weighted=True)
    vocab = {}
    for n in range(words):
        prons = [_random_pron(rng, 2, 9)]
        if rng.random() < SECOND_VARIANT_SHARE:
            prons.append(_random_pron(rng, 2, 9))
        vocab[f"syn{n:06d}"] = prons
    _write_dictionary(root, vocab)
    config = _write_config(
        root, weight_table="weights.tsv", top_k=k, seed=seed,
        scales=dict(zip("sdi", SCALES)),
    )
    blocked = {w["id"]: _blocklist(w, vocab) for w in WAKES}
    labels = list(vocab)
    jobs = [
        Job(
            key=w["id"],
            argv=["rank", "--wake", w["id"], "--model", "advanced"],
            work=len(vocab) - len(blocked[w["id"]] & vocab.keys()),
            outputs=[f"rank_{w['id']}_dictionary.tsv", f"manifest_{w['id']}_dictionary.tsv"],
        )
        for w in WAKES
    ]
    def check(job: Job, out: Path) -> list[str]:
        wake = WAKE_BY_ID[job.key]
        scorer = RefScorer(wake["phones"], SCALES, table)
        rank_path, manifest_path = out / job.outputs[0], out / job.outputs[1]
        check_rng = random.Random(f"check:{seed}:{job.key}")
        errors = _check_ranked(rank_path, "advanced", scorer, vocab.get, labels,
                               blocked[job.key], k, check_rng, sample)
        return errors + _check_manifest(manifest_path, rank_path)

    return Prepared(config, ("dictionary", "wake_words", "weight_table"), jobs, check,
                    "candidates scored")


# ---------------------------------------------------------------------------
# rank-ngrams


def gen_rank_ngrams(root: Path, seed: int, words: int = 20_000, lines: int = 1_500,
                    k: int = 1000, sample: int = 150) -> Prepared:
    """`rank --source transcripts --model unweighted` on 1-, 2- and 3-grams.

    Transcript lines are Zipf-drawn sentences over a letter-only dictionary
    of words with 2 to 6 phones, in which 15% of words have a second
    variant and 2% a third, with about 10% out-of-vocabulary tokens.
    """
    rng = random.Random(f"rank-ngrams:{seed}")
    _write_common(root, rng, weighted=False)
    vocab: dict[str, list[tuple]] = {}
    while len(vocab) < words:
        word = _letters(rng, 3, 9)
        if word in vocab:
            continue
        # Variant counts and lengths follow the Zipf rank, not the seed:
        # the frequent words make up most n-grams, and their shapes set the
        # work, which should not change from seed to seed.
        rank = len(vocab)
        variants = 3 if rank % 50 == 27 else 2 if rank % 20 in (3, 9, 15) else 1
        vocab[word] = [tuple(rng.choices(SYMBOLS, k=2 + (rank * 3 + v) % 5))
                       for v in range(variants)]
    oov = set()
    while len(oov) < words // 10:
        token = _letters(rng, 3, 9)
        if token not in vocab:
            oov.add(token)
    oov = sorted(oov)
    _write_dictionary(root, vocab)
    ordered = list(vocab)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** 1.07 for r in range(len(ordered))))
    sentences = []
    for _ in range(lines):
        tokens = [
            rng.choice(oov) if rng.random() < 0.1 else rng.choices(ordered, cum_weights=cum)[0]
            for _ in range(rng.randint(5, 12))
        ]
        sentences.append(tokens)
    with open(root / "transcripts.txt", "w", encoding="utf-8") as fh:
        for tokens in sentences:
            fh.write(" ".join(tokens).capitalize() + ".\n")
    config = _write_config(root, top_k=k, seed=seed)

    def phrase_prons(label):
        per_word = [vocab.get(w) for w in label.split()]
        if any(p is None for p in per_word):
            return None
        combos = itertools.islice(itertools.product(*per_word), MAX_PHRASE_VARIANTS)
        return [tuple(itertools.chain.from_iterable(c)) for c in combos]

    grams, dropped = {}, {}
    for n in (1, 2, 3):
        seen = dict.fromkeys(
            " ".join(t[i : i + n]) for t in sentences for i in range(len(t) - n + 1)
        )
        grams[n] = [g for g in seen if all(w in vocab for w in g.split())]
        dropped[n] = len(seen) - len(grams[n])
    blocked = {w["id"]: _blocklist(w, vocab) for w in WAKES}
    jobs = []
    for w in WAKES:
        names = [f"{w['id']}_{n}-gram" for n in (1, 2, 3)]
        jobs.append(Job(
            key=w["id"],
            argv=["rank", "--wake", w["id"], "--model", "unweighted", "--source", "transcripts",
                  "--transcripts", str(root / "transcripts.txt")],
            work=sum(len([g for g in grams[n] if g not in blocked[w["id"]]]) for n in (1, 2, 3)),
            outputs=[f"{kind}_{name}.tsv" for name in names for kind in ("rank", "manifest")],
        ))
    def check(job: Job, out: Path) -> list[str]:
        wake = WAKE_BY_ID[job.key]
        scorer = RefScorer(wake["phones"], UNIT)
        errors = []
        for n in (1, 2, 3):
            rank_path = out / f"rank_{job.key}_{n}-gram.tsv"
            check_rng = random.Random(f"check:{seed}:{job.key}:{n}")
            errors += _check_ranked(rank_path, "unweighted", scorer, phrase_prons, grams[n],
                                    blocked[job.key], k, check_rng, sample)
            errors += _check_manifest(out / f"manifest_{job.key}_{n}-gram.tsv", rank_path)
        return errors

    return Prepared(config, ("dictionary", "wake_words"), jobs, check, "candidates scored",
                    notes={"ngrams_dropped_oov": dropped})


# ---------------------------------------------------------------------------
# tune-loocv

GRID = {"lo": 0.05, "hi": 1.05, "step": 0.05}
TRIGGERS_PER_WAKE = 3
TUNE_TOP_K = 20
_EDITS = ("insert", "insert", "insert", "substitute", "substitute", "delete")


def _perturb(rng, phones):
    out = list(phones)
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(_EDITS)
        if edit == "insert":
            out.insert(rng.randint(0, len(out)), rng.choice(SYMBOLS))
        elif edit == "substitute":
            pos = rng.randrange(len(out))
            out[pos] = rng.choice([q for q in SYMBOLS if q != out[pos]])
        elif len(out) > 1:
            del out[rng.randrange(len(out))]
    return tuple(out)


def _axis(grid):
    count = int(math.floor((grid["hi"] - grid["lo"]) / grid["step"] + 1e-9)) + 1
    return [round(grid["lo"] + n * grid["step"], 12) for n in range(count)]


def gen_tune_loocv(root: Path, seed: int, words: int = 500, points: int = 4,
                   grid: dict = GRID) -> Prepared:
    """`tune --variant advanced --loocv` over a 21^3-point grid.

    Every wake word gets ``TRIGGERS_PER_WAKE`` planted triggers: dictionary words
    whose pronunciation is one or two (mostly insertion) edits away from
    the wake word's, never a contiguous piece of it, because such labels
    are blocklisted and the trigger filter then aborts the whole job.
    """
    rng = random.Random(f"tune-loocv:{seed}")
    table = _write_common(root, rng, weighted=True)
    # Every length from 2 to 9 phones equally often, so that the grid
    # search does the same work whatever the seed.
    lengths = [2 + n % 8 for n in range(words)]
    rng.shuffle(lengths)
    vocab = {f"w{n:04d}": [tuple(rng.choices(SYMBOLS, k=m))] for n, m in enumerate(lengths)}
    prons_taken = {p[0] for p in vocab.values()}
    triggers = []
    for w in WAKES:
        planted = 0
        while planted < TRIGGERS_PER_WAKE:
            pron = _perturb(rng, w["phones"])
            if _contiguous_piece(pron, w["phones"]) or pron in prons_taken:
                continue
            prons_taken.add(pron)
            planted += 1
            label = f"trig{w['id'].lower()}{planted}"
            vocab[label] = [pron]
            triggers.append((w["id"], label))
    _write_dictionary(root, vocab)
    with open(root / "triggers.tsv", "w", encoding="utf-8") as fh:
        fh.write("wake_id\ttrigger_label\ttimes_triggered\n")
        for wake_id, label in triggers:
            fh.write(f"{wake_id}\t{label}\t{rng.randint(1, 9)}\n")
    config = _write_config(
        root, weight_table="weights.tsv", top_k=TUNE_TOP_K, seed=seed, grid=grid,
        scales=dict(zip("sdi", SCALES)),
    )
    labels_of = {wid: [lbl for w2, lbl in triggers if w2 == wid] for wid in WAKE_BY_ID}
    kept = {}
    for wid, wake in WAKE_BY_ID.items():
        blocked = _blocklist(wake, vocab)
        kept[wid] = [c for c in vocab if c not in blocked]
    axis = _axis(grid)
    n_points = len(axis) ** 3
    job = Job(
        key="tune",
        argv=["tune", "--triggers", str(root / "triggers.tsv"), "--variant", "advanced", "--loocv"],
        work=n_points * sum(map(len, kept.values())),
        outputs=["tuning_report.tsv"],
    )

    def objective(point):
        worst = {}
        for wid, labels in labels_of.items():
            scorer = RefScorer(WAKE_BY_ID[wid]["phones"], point, table)
            costs = [scorer.best(vocab[c]) for c in kept[wid]]
            targets = [scorer.best(vocab[lbl]) for lbl in labels]
            worst[wid] = max(1 + sum(c < t for c in costs) for t in targets)
        return worst

    def check(job: Job, out: Path) -> list[str]:
        sections = _sections((out / "tuning_report.tsv").read_text(), top="summary")
        fields = {r[0]: r[1:] for r in map(lambda line: line.split("\t"), sections["summary"])}
        errors = []
        if fields.get("grid_points_evaluated") != [str(n_points)]:
            errors.append(f"grid_points_evaluated {fields.get('grid_points_evaluated')}")
        if sections.get("trigger_filter") != [f"kept\t{len(triggers)}\tof\t{len(triggers)}"]:
            errors.append(f"trigger filter {sections.get('trigger_filter')}, {len(triggers)} planted")
        best = tuple(float(v.split("=")[1]) for v in fields["best_scales"])
        if any(v not in axis for v in best):
            return errors + [f"best point {best} is not on the grid"]
        worst = objective(best)
        at_best = sum(worst.values())
        if fields.get("objective") != [str(at_best)]:
            errors.append(f"objective {fields.get('objective')}, reference {at_best}")
        if sections.get("per_wake_worst_rank") != [f"{w}\t{r}" for w, r in sorted(worst.items())]:
            errors.append(f"per-wake worst ranks {sections.get('per_wake_worst_rank')}, "
                          f"reference {worst}")
        hits = dict(line.split("\t") for line in sections.get("cross_validation_hits", []))
        if sorted(hits) != sorted(WAKE_BY_ID) or any(not 0 <= int(h) <= TRIGGERS_PER_WAKE for h in hits.values()):
            errors.append(f"cross-validation hits {hits}")
        # The reported point must be the first minimum in (s, d, i) order,
        # which is the order of the grid's axis values.
        check_rng = random.Random(f"check:{seed}")
        for _ in range(points):
            point = tuple(check_rng.choice(axis) for _ in range(3))
            value = sum(objective(point).values())
            if value < at_best or (value == at_best and point < best):
                errors.append(f"grid point {point} scores {value}, better than {best}")
        return errors

    return Prepared(config, ("dictionary", "wake_words", "weight_table"), [job], check,
                    "grid point x candidate pairs")


# ---------------------------------------------------------------------------
# harness-logs


def _kappa(a, b) -> float:
    n = len(a)
    observed = Fraction(sum(x == y for x, y in zip(a, b)), n)
    ca, cb = Counter(a), Counter(b)
    expected = sum(Fraction(ca[label] * cb[label], n * n) for label in ca)
    return 1.0 if expected == 1 else float((observed - expected) / (1 - expected))


# Shares of harness-logs events left unverified, verified but not
# adjudicated, and added as orphan records.
UNVERIFIED, UNADJUDICATED, ORPHANS = 0.05, 0.1, 0.01


def gen_harness_logs(root: Path, seed: int, events: int = 100_000, media: int = 24) -> Prepared:
    """`harness` over event, verification and adjudication logs.

    The generator plants every outcome (resolutions, hit counts, signals,
    unverified events, orphan records) and derives the expected summary
    from what it planted.
    """
    rng = random.Random(f"harness-logs:{seed}")
    _write_common(root, rng, weighted=False)
    # The config must name a dictionary; harness jobs never read it.
    _write_dictionary(root, {"hey": [("HH", "EY")]})
    lengths = {f"media_{m:02d}": float(rng.randrange(1200, 3600)) for m in range(media)}
    media_ids = list(lengths)
    speakers = [w["id"] for w in WAKES]
    config = _write_config(root, media_lengths=lengths, seed=seed)

    counts: dict[tuple, list[int]] = {}
    bins = {s: dict.fromkeys(BINS, 0) for s in speakers}
    activation = {s: {"local": 0, "local_plus_cloud": 0} for s in speakers}
    ratings_a, ratings_b, windows = [], [], []
    taken = set()
    n_lines = n_unverified = 0

    def event_fields(second, media_id, progress, speaker):
        stamp = f"2019-10-{1 + second // 86400:02d}T{second // 3600 % 24:02d}:{second // 60 % 60:02d}:{second % 60:02d}Z"
        return {"ts": stamp, "media": media_id, "progress_s": progress, "speaker": speaker}

    def new_key():
        """A (speaker, media, position) no other record has: the join key."""
        while True:
            speaker, media_id = rng.choice(speakers), rng.choice(media_ids)
            key = (speaker, media_id, rng.randrange(0, int(lengths[media_id]) * 10) / 10)
            if key not in taken:
                taken.add(key)
                return key

    def review():
        a = rng.choice(REVIEW_LABELS)
        return a, a if rng.random() < 0.8 else rng.choice(REVIEW_LABELS)

    with open(root / "events.jsonl", "w") as ev, open(root / "verification.jsonl", "w") as ver, \
            open(root / "adjudication.jsonl", "w") as adj:
        for n in range(events):
            speaker, media_id, progress = new_key()
            fields = event_fields(n * 7, media_id, progress, speaker)
            ev.write(json.dumps(fields) + "\n")
            n_lines += 1
            if rng.random() < UNVERIFIED:
                n_unverified += 1
                continue
            hits = rng.randint(0, 10)
            led, voice, cloud = round(rng.uniform(0, 4), 2), rng.random() < 0.2, rng.random() < 0.1
            ver.write(json.dumps({**fields, "replays": 10, "hits": hits, "led_on_s": led,
                                  "voice_response": voice, "cloud_pattern": cloud}) + "\n")
            n_lines += 1
            row = counts.setdefault((media_id, speaker), [0, 0, 0])
            bins[speaker][BINS[(hits > 0) + (hits > 3) + (hits > 7)]] += 1
            cloud_class = led >= 2.0 or voice or cloud
            activation[speaker]["local_plus_cloud" if cloud_class else "local"] += 1
            start, end = max(0.0, progress - 7.0), min(lengths[media_id], progress + 3.0)
            windows.append(f"{media_id}\t{speaker}\t{progress:.12g}\t{start:.12g}\t{end:.12g}")
            if rng.random() < UNADJUDICATED:
                row[2] += 1
                continue
            a, b = review()
            adj.write(json.dumps({**fields, "reviewer_a": a, "reviewer_b": b}) + "\n")
            n_lines += 1
            ratings_a.append(a)
            ratings_b.append(b)
            both = (a == "accidental") + (b == "accidental")
            row[{2: 0, 0: 1, 1: 2}[both]] += 1
        for n in range(int(events * ORPHANS)):
            speaker, media_id, progress = new_key()
            fields = event_fields(n * 11, media_id, progress, speaker)
            if n % 2:
                ver.write(json.dumps({**fields, "replays": 10, "hits": 1}) + "\n")
            else:
                a, b = review()
                adj.write(json.dumps({**fields, "reviewer_a": a, "reviewer_b": b}) + "\n")
            n_lines += 1

    totals = {s: [sum(r[i] for (m, sp), r in counts.items() if sp == s) for i in range(3)]
              for s in sorted({sp for _, sp in counts})}
    expected = {
        "counts": [f"{m}\t{s}\t{r[0]}\t{r[1]}\t{r[2]}" for (m, s), r in sorted(counts.items())]
        + [f"ALL\t{s}\t{r[0]}\t{r[1]}\t{r[2]}" for s, r in totals.items()],
        "reproducibility": [f"{s}\t" + "\t".join(str(bins[s][b]) for b in BINS)
                            for s in speakers if any(bins[s].values())],
        "activation": [f"{s}\t{a['local']}\t{a['local_plus_cloud']}"
                       for s, a in activation.items() if any(a.values())],
        "windows": windows,
    }
    kappa = _kappa(ratings_a, ratings_b)
    args = ["harness"]
    for name in ("events", "verification", "adjudication"):
        args += [f"--{name}", str(root / f"{name}.jsonl")]
    job = Job("harness", args, n_lines, ["harness_summary.tsv"])

    def check(job: Job, out: Path) -> list[str]:
        sections = _sections((out / "harness_summary.tsv").read_text())
        errors = []
        for name, rows in expected.items():
            got = sections.get(name, [None])[1:]
            if got != rows:
                errors.append(f"[{name}] differs from the planted truth")
        agreement = sections.get("agreement", ["cohens_kappa\tnan"])[0].split("\t")[1]
        if not abs(float(agreement) - kappa) <= 1e-6:
            errors.append(f"kappa {agreement}, planted {kappa:.6f}")
        return errors

    notes = {"unverified": n_unverified, "orphans": int(events * ORPHANS)}
    return Prepared(config, (), [job], check, "log records", notes=notes)


WORKLOADS = {
    "rank-dict": gen_rank_dict,
    "rank-ngrams": gen_rank_ngrams,
    "tune-loocv": gen_tune_loocv,
    "harness-logs": gen_harness_logs,
}
