"""Command-line workbench tying the pipeline together.

Subcommands::

    rank        rank a vocabulary against a wake word, write list + manifest
    tune        filter triggers, grid-search scale factors, optional LOOCV
    ngrams      extract n-gram candidates from transcripts
    blocklist   show the blocklist for a wake word
    weights     build a weight table from probe scores / check a stored one
    probe-plan  emit the probe cells an external scorer should measure
    harness     analyze measurement logs into a summary table

All commands read a JSON config (``--config``) describing the shared
resources: dictionary, wake words, optional weight table, grid, seed, and
output directory.  Paths in the config are resolved relative to the config
file.  Every run is deterministic for a fixed seed; output files carry a
timestamp header unless ``--no-timestamp`` is given.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 for
data errors (unparseable or inconsistent inputs).
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import candidates as cand_mod
from . import harness as harness_mod
from . import tuning as tuning_mod
from .candidates import (
    DEFAULT_VOICES,
    RankedList,
    Vocabulary,
    Voice,
    build_blocklist,
    export_manifest,
    extract_ngrams,
    rank_candidates,
)
from .distance import CostModel, ScaleFactors, WeightTable
from .errors import ConfigError, ParseError, TriggerCraftError, UnknownPhone
from .lexicon import (
    PhoneInventory,
    PronouncingDictionary,
    WakeWordSpec,
    load_dictionary,
    parse_phone,
)
from .readers import finite_number, string, text_integer, whole_number
from .tuning import (
    Grid,
    TriggerRanks,
    cross_validate,
    filter_triggers,
    grid_search,
    load_trigger_labels,
)
from .weights import (
    build_weight_table,
    load_probe_scores,
    load_weight_table,
    plan_rows,
    sample_probe_words,
    store_weight_table,
)

__all__ = ["WorkbenchConfig", "main"]

log = logging.getLogger(__name__)

_ESCAPED = re.compile("[\udc80-\udcff]")

GRID_PRESETS = {
    "default": Grid.default,
    "extended": Grid.extended,
}


@dataclass
class WorkbenchConfig:
    """Parsed workbench configuration plus lazily loaded resources."""

    dictionary_path: Path
    wake_words_path: Path
    weight_table_path: Path | None
    scales: ScaleFactors
    grid: Grid
    top_k: int
    seed: int
    out_dir: Path
    voices: tuple[Voice, ...]
    media_lengths: dict[str, float] = field(default_factory=dict)
    inventory_path: Path | None = None

    # Loaded on first use; caches, not settings.
    _inventory: PhoneInventory | None = field(default=None, init=False, repr=False)
    _dictionary: PronouncingDictionary | None = field(default=None, init=False, repr=False)
    _wake_words: list[WakeWordSpec] | None = field(default=None, init=False, repr=False)
    _weight_table: WeightTable | None = field(default=None, init=False, repr=False)
    _vocabulary: Vocabulary | None = field(default=None, init=False, repr=False)

    def inventory(self) -> PhoneInventory:
        """The phones the dictionary and the wake words may use."""
        if self._inventory is None:
            self._inventory = (
                PhoneInventory.default() if self.inventory_path is None
                else _load(self.inventory_path, "inventory file", PhoneInventory.load)
            )
        return self._inventory

    def dictionary(self) -> PronouncingDictionary:
        if self._dictionary is None:
            inventory = self.inventory()
            self._dictionary = _load(self.dictionary_path, "dictionary file",
                                     lambda lines: load_dictionary(lines, inventory))
        return self._dictionary

    def vocabulary(self) -> Vocabulary:
        """The dictionary's words as candidates, encoded once for every ranking."""
        if self._vocabulary is None:
            self._vocabulary = Vocabulary.from_dictionary(self.dictionary())
        return self._vocabulary

    def wake_words(self) -> list[WakeWordSpec]:
        if self._wake_words is None:
            raw = _load(self.wake_words_path, "wake-word file", json.load)
            if not isinstance(raw, list):
                raise ConfigError("wake-word file must hold a JSON list of entries")
            inventory = self.inventory()
            specs = _checked("wake-word entry", lambda entries: [_wake_word(e, inventory)
                                                                 for e in entries], raw)
            if not specs:
                raise ConfigError("wake-word file lists no wake words")
            self._wake_words = specs
        return self._wake_words

    def wake_word(self, wake_id: str) -> WakeWordSpec:
        for spec in self.wake_words():
            if spec.id == wake_id:
                return spec
        known = [w.id for w in self.wake_words()]
        raise ConfigError(f"unknown wake word {wake_id!r}; configured: {known}")

    def weight_table(self) -> WeightTable:
        if self._weight_table is None:
            if self.weight_table_path is None:
                raise ConfigError("this command needs a 'weight_table' entry in the config")
            self._weight_table = _load(self.weight_table_path, "weight table", load_weight_table)
        return self._weight_table

    def model(self, variant: str) -> CostModel:
        if variant == "unweighted":
            return CostModel.unweighted()
        if variant == "simple":
            return CostModel.simple(self.scales)
        return CostModel.advanced(self.scales, self.weight_table())


def _strings(value, key: str) -> tuple[str, ...]:
    """A JSON list of strings, each read by :func:`~triggercraft.readers.string`; nothing else."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return tuple(string(item, key) for item in value)


def _wake_word(entry, inventory: PhoneInventory) -> WakeWordSpec:
    """A wake-word entry: string ``id`` and ``text``, a non-empty list of
    string ``phones``, and an optional list of string ``blocklist`` labels.

    Each phone is read as a dictionary phone is (:func:`parse_phone`).
    """
    if not isinstance(entry, dict):
        raise ValueError(f"expected a JSON object, got {entry!r}")
    return WakeWordSpec(
        id=string(entry["id"], "id"),
        text=string(entry["text"], "text"),
        phones=tuple(parse_phone(p, inventory).symbol for p in _strings(entry["phones"], "phones")),
        explicit_blocklist=_strings(entry.get("blocklist", []), "blocklist"),
    )


def _scales(raw) -> ScaleFactors:
    return ScaleFactors(*(finite_number(raw[key], key) for key in ("s", "d", "i")))


def _grid(raw) -> Grid:
    if isinstance(raw, str):
        if raw not in GRID_PRESETS:
            raise ValueError(f"unknown grid preset {raw!r}; known: {sorted(GRID_PRESETS)}")
        return GRID_PRESETS[raw]()
    # Floats, NaN and inf among them, are left to the grid's own checks.
    grid = Grid(*(raw[key] if type(raw[key]) is float else finite_number(raw[key], key)
                  for key in ("lo", "hi", "step")))
    grid.point_count()  # checks the axis and the size cap, allocating nothing
    return grid


def _voices(raw) -> tuple[Voice, ...]:
    if raw is None:
        return DEFAULT_VOICES
    voices = tuple(Voice(string(v["id"], "id"), string(v["kind"], "kind"),
                         string(v["gender"], "gender")) for v in raw)
    cand_mod._validate_voices(voices)
    return voices


def _media_lengths(raw) -> dict[str, float]:
    lengths = {}
    for media_id, value in raw.items():
        lengths[string(media_id, "media id")] = finite_number(value, f"length of {media_id!r}")
        if lengths[media_id] <= 0:
            raise ValueError(f"length of {media_id!r} must be > 0, got {value!r}")
    return lengths


def _checked(what: str, read, value):
    """``read(value)``; a value that fails ``read``'s checks is a
    :class:`ConfigError` (exit 1) that names it as ``what``."""
    try:
        return read(value)
    except (AttributeError, KeyError, TypeError, ValueError, UnknownPhone) as exc:
        raise ConfigError(f"bad {what}: {exc!r}") from None


def load_config(path: str | Path) -> WorkbenchConfig:
    path = Path(path)
    raw = _load(path, "config", json.load)
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    raw = {key: value for key, value in raw.items() if value is not None}  # null means absent
    base = path.parent

    def entry(key: str, read, default=None):
        return _checked(f"{key!r} entry", read, raw.get(key, default))

    def file(key: str, required: bool = False) -> Path | None:
        """The existing file the ``key`` entry names, relative to the config."""
        if key not in raw:
            if required:
                raise ConfigError(f"config is missing {key!r}")
            return None
        named = entry(key, lambda value: base / string(value, key))
        if not named.exists():
            raise ConfigError(f"{key} file does not exist: {named}")
        return named

    top_k = entry("top_k", lambda value: whole_number(value, "top_k"), 100)
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    return WorkbenchConfig(
        dictionary_path=file("dictionary", required=True),
        wake_words_path=file("wake_words", required=True),
        weight_table_path=file("weight_table"),
        inventory_path=file("inventory"),
        scales=entry("scales", _scales, {"s": 1.0, "d": 1.0, "i": 1.0}),
        grid=entry("grid", _grid, "default"),
        top_k=top_k,
        seed=entry("seed", lambda value: whole_number(value, "seed"), 0),
        out_dir=entry("out_dir", lambda value: base / string(value, "out_dir"), "out"),
        voices=entry("voices", _voices),
        media_lengths=entry("media_lengths", _media_lengths, {}),
    )


def _load(path: Path, what: str, parse):
    """``parse`` (``json.load`` for a JSON file) run over the config or a
    file it names; any failure is a :class:`ConfigError` (exit 1)."""
    try:
        return _parse_file(path, parse)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except TriggerCraftError as exc:  # a text parser's, or a byte that is not UTF-8
        raise ConfigError(f"bad {what}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # json.load's, also a long integer, deep nesting
        raise ConfigError(f"bad {what}: not valid JSON: {exc}") from None


def _parse_file(path, parse):
    """``parse`` run over the lines of the UTF-8 text file at ``path``.

    A byte that is not UTF-8 is a :class:`ParseError` naming its line.
    Text mode decodes a file in chunks, so the failing line is found by
    reading the file again, only after a decode has failed.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            reason = exc.reason
    # Undecodable bytes read back as lone surrogates, which UTF-8 text never holds.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno = next((n for n, line in enumerate(fh, 1) if _ESCAPED.search(line)), None)
    raise ParseError(f"not UTF-8: {reason}", lineno)


# ---------------------------------------------------------------------------
# Output helpers.


class OutputWriter:
    def __init__(self, out_dir: Path, timestamp: bool):
        self.out_dir = out_dir
        self.timestamp = timestamp

    def write(self, name: str, body: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        header = ""
        if self.timestamp:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            header = f"# generated {stamp}\n"
        path.write_text(header + body, encoding="utf-8")
        log.info("wrote %s", path)
        return path


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def format_ranked_list(ranked: RankedList) -> str:
    model = ranked.model
    scales = model.scales
    lines = [
        "# model={} s={} d={} i={} k={} seed={} boundary_pool_size={}".format(
            model.variant, _fmt(scales.s), _fmt(scales.d), _fmt(scales.i),
            ranked.k, ranked.seed, ranked.boundary_pool_size,
        ),
        f"# wake={ranked.wake.id} text={ranked.wake.text}",
        "rank\tlabel\tL\tS_n\tD_n\tI_n",
    ]
    for item in ranked.items:
        b = item.breakdown
        lines.append(
            f"{item.rank}\t{item.candidate.label}\t{_fmt(item.distance)}"
            f"\t{b.S_n}\t{b.D_n}\t{b.I_n}"
        )
    return "\n".join(lines) + "\n"


def format_manifest(rows: Sequence[tuple[str, ...]]) -> str:
    """A header, then one tab-separated line per ``export_manifest`` row."""
    lines = ["label\tvoice\tkind\tgender\tfile", *map("\t".join, rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_rank(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    wake = config.wake_word(args.wake)
    dictionary = config.dictionary()
    model = config.model(args.model)
    blocked = build_blocklist(wake, dictionary)
    if args.source == "dictionary":
        vocab_by_name = {"dictionary": config.vocabulary()}
    else:
        if args.transcripts is None:
            raise ConfigError("--source transcripts needs --transcripts FILE")
        lines = _parse_file(args.transcripts, list)
        vocab_by_name = {
            f"{n}-gram": extract_ngrams(lines, n, dictionary) for n in args.ngram_sizes
        }
    for name, vocab in vocab_by_name.items():
        ranked = rank_candidates(
            vocab, wake, model, config.top_k, config.seed, blocklist=blocked
        )
        suffix = f"{args.wake}_{name}".replace(" ", "_")
        writer.write(f"rank_{suffix}.tsv", format_ranked_list(ranked))
        writer.write(
            f"manifest_{suffix}.tsv", format_manifest(export_manifest(ranked, config.voices))
        )
    return 0


def cmd_tune(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    if args.filter_threshold < 1:  # ranks start at 1, so no trigger would be kept
        raise ConfigError("--filter-threshold must be at least 1")
    triggers = _parse_file(args.triggers, load_trigger_labels)
    dictionary = config.dictionary()
    # Triggers rank against the word list, so phrase triggers (and any
    # trigger missing from it) join it: one encoding for every ranking.
    vocab = Vocabulary.from_dictionary(dictionary, [t.trigger_label for t in triggers])
    wakes = config.wake_words()
    blocklists = {w.id: build_blocklist(w, dictionary) for w in wakes}
    table = config.weight_table() if args.variant == "advanced" else None
    # One rank pass per wake word, shared by the filter, the search and
    # every cross-validation fold.
    ranks = TriggerRanks(triggers, vocab, wakes, config.grid, args.variant, table, blocklists)
    kept = filter_triggers(
        triggers, vocab, wakes, config.grid,
        threshold=args.filter_threshold, variant=args.variant, table=table,
        blocklists=blocklists, ranks=ranks,
    )
    result = grid_search(
        kept, vocab, wakes, config.grid, args.variant, table, blocklists=blocklists,
        ranks=ranks,
    )
    validation = None
    if args.loocv:
        per_wake: dict[str, list] = {w.id: [] for w in wakes}
        for trigger in kept:
            per_wake[trigger.wake_id].append(trigger)
        validation = cross_validate(
            per_wake, vocab, wakes, config.grid, args.variant, table,
            k=config.top_k, seed=config.seed, blocklists=blocklists, ranks=ranks,
        )
    report = tuning_mod.format_tuning_report(
        result, cross_validation=validation, filtered=(len(kept), len(triggers))
    )
    writer.write("tuning_report.tsv", report)
    return 0


def cmd_ngrams(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    dictionary = config.dictionary()
    lines = _parse_file(args.transcripts, list)
    grams = extract_ngrams(lines, args.n, dictionary)
    body_lines = ["label\tcount\tpronunciations"]
    for gram in grams:  # each candidate is decoded from the columns as it is read
        body_lines.append(f"{gram.label}\t{gram.count}\t{';'.join(map(' '.join, gram.prons))}")
    writer.write(f"ngrams_{args.n}.tsv", "\n".join(body_lines) + "\n")
    return 0


def cmd_blocklist(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    wake = config.wake_word(args.wake)
    blocked = build_blocklist(wake, config.dictionary())
    for label in sorted(blocked):
        print(label)
    return 0


def cmd_weights(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    if args.weights_action == "build":
        scores = _parse_file(args.scores, load_probe_scores)
        table = build_weight_table(scores, config.wake_words())
        buffer = io.StringIO()
        store_weight_table(table, buffer)
        writer.write(args.table_name, buffer.getvalue())
        return 0
    # check
    table = _parse_file(args.table, load_weight_table)
    print(f"ok: {len(table.deletion)} deletion, {len(table.insertion)} insertion, "
          f"{len(table.substitution)} substitution entries over {len(table.row_phones)} rows")
    return 0


def cmd_probe_plan(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    if min(args.n_words, args.n_voices) < 1:
        raise ConfigError("--n-words and --n-voices must be at least 1")
    dictionary = config.dictionary()
    if args.phones:  # read as wake-word phones are; B and b1 are one phone, planned once
        inventory = config.inventory()
        symbols = _checked("--phone", lambda given: [parse_phone(p, inventory).symbol
                                                     for p in given], args.phones)
        phones = list(dict.fromkeys(symbols))
    else:
        phones = sorted({p for w in config.wake_words() for p in w.phones})
    lines = ["phone\tedit\ttarget\tword\tvoice"]
    for phone in phones:
        plan = sample_probe_words(
            dictionary, phone, args.n_words, config.seed, n_voices=args.n_voices
        )
        for row in plan_rows(plan, dictionary.inventory.symbols):
            lines.append("\t".join(str(part) for part in row))
    writer.write("probe_plan.tsv", "\n".join(lines) + "\n")
    return 0


def cmd_harness(config: WorkbenchConfig, args, writer: OutputWriter) -> int:
    events = _parse_file(args.events, harness_mod.parse_event_log)
    verifications = _parse_file(args.verification, harness_mod.parse_verification_log)
    adjudications = _parse_file(args.adjudication, harness_mod.parse_adjudication_log)
    analyses = harness_mod.join_records(events, verifications, adjudications)
    summary = harness_mod.summarize(analyses, config.media_lengths)
    writer.write("harness_summary.tsv", harness_mod.format_summary(summary))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triggercraft",
        description="Craft, rank, and analyze accidental wake-word triggers.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=integer, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generation-time header from outputs",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank candidates against a wake word")
    p_rank.add_argument("--wake", required=True, help="wake word id from the config")
    p_rank.add_argument(
        "--model", choices=("unweighted", "simple", "advanced"), default="simple"
    )
    p_rank.add_argument(
        "--source", choices=("dictionary", "transcripts"), default="dictionary"
    )
    p_rank.add_argument("--transcripts", help="transcript file for --source transcripts")
    p_rank.add_argument(
        "--ngram-sizes", type=_int_list, default=(1, 2, 3),
        help="comma-separated n-gram sizes (default 1,2,3)",
    )
    p_rank.set_defaults(func=cmd_rank)

    p_tune = sub.add_parser("tune", help="grid-search the scale factors")
    p_tune.add_argument("--triggers", required=True, help="trigger-label TSV file")
    p_tune.add_argument("--variant", choices=("simple", "advanced"), default="simple")
    p_tune.add_argument("--filter-threshold", type=integer, default=500)
    p_tune.add_argument("--loocv", action="store_true", help="also cross-validate")
    p_tune.set_defaults(func=cmd_tune)

    p_ngrams = sub.add_parser("ngrams", help="extract n-gram candidates")
    p_ngrams.add_argument("--transcripts", required=True)
    p_ngrams.add_argument("--n", type=integer, choices=(1, 2, 3), required=True)
    p_ngrams.set_defaults(func=cmd_ngrams)

    p_block = sub.add_parser("blocklist", help="print a wake word's blocklist")
    p_block.add_argument("--wake", required=True)
    p_block.set_defaults(func=cmd_blocklist)

    p_weights = sub.add_parser("weights", help="build or check weight tables")
    weights_sub = p_weights.add_subparsers(dest="weights_action", required=True)
    p_build = weights_sub.add_parser("build", help="estimate a table from probe scores")
    p_build.add_argument("--scores", required=True, help="probe-score TSV file")
    p_build.add_argument(
        "--table-name", default="weights.tsv", help="output file name (in --out)"
    )
    p_build.set_defaults(func=cmd_weights)
    p_check = weights_sub.add_parser("check", help="validate a stored table")
    p_check.add_argument("--table", required=True)
    p_check.set_defaults(func=cmd_weights)

    p_plan = sub.add_parser("probe-plan", help="emit probe cells for the scorer")
    p_plan.add_argument(
        "--phone", dest="phones", action="append",
        help="phone to probe (repeatable; default: all wake-word phones)",
    )
    p_plan.add_argument("--n-words", type=integer, default=100)
    p_plan.add_argument("--n-voices", type=integer, default=10)
    p_plan.set_defaults(func=cmd_probe_plan)

    p_harness = sub.add_parser("harness", help="summarize measurement logs")
    p_harness.add_argument("--events", required=True)
    p_harness.add_argument("--verification", required=True)
    p_harness.add_argument("--adjudication", required=True)
    p_harness.set_defaults(func=cmd_harness)

    return parser


def integer(text: str) -> int:
    """A CLI integer, read as :func:`readers.text_integer` reads a signed one."""
    return text_integer(text, "value", signed=True)


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(integer(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {raw!r}") from None
    if not values or any(v not in (1, 2, 3) for v in values):
        raise argparse.ArgumentTypeError("n-gram sizes must come from 1,2,3")
    return values


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are exit 1 here,
        # --help stays 0.
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = Path(args.out)
        writer = OutputWriter(config.out_dir, timestamp=not args.no_timestamp)
        return args.func(config, args, writer)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (OSError, TriggerCraftError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
