"""End-to-end acceptance checks, one verdict line per pipeline guarantee.

Each test prints ``PASS``/``FAIL`` with a short description straight to the
terminal (bypassing capture) so a full run reads as a checklist.
"""

import contextlib
import io
import math
import random
import time

import pytest

from oracles import oracle_cost, random_models, random_phones
from triggercraft.candidates import (
    Candidate,
    build_blocklist,
    dictionary_candidates,
    normalize_label,
    rank_candidates,
)
from triggercraft.distance import (
    CostContext,
    CostModel,
    ScaleFactors,
    WeightTable,
    align,
    distance_to_wakeword,
)
from triggercraft.harness import (
    TriggerEvent,
    bin_reproducibility,
    classify_activation,
    cohens_kappa,
    verification_window,
)
from triggercraft.lexicon import (
    PhoneInventory,
    WakeWordSpec,
    load_dictionary,
    phrase_phones,
)
from triggercraft.tuning import (
    Grid,
    LabeledTrigger,
    cross_validate,
    grid_search,
    load_trigger_labels,
    rank_of,
)
from triggercraft.weights import build_weight_table, load_weight_table, store_weight_table
from triggercraft.workbench import main

ALEXA = ("AH", "L", "EH", "K", "S", "AH")
A_LESSON = ("AH", "L", "EH", "S", "AH", "N")


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL  {label}")
            raise
        with capsys.disabled():
            print(f"\nPASS  {label}")

    return _report


def test_distance_matches_exhaustive_enumeration(report):
    with report("scored distances equal exhaustive-enumeration minima (1000 pairs)"):
        rng = random.Random(92)
        start = time.perf_counter()
        for _ in range(1000):
            wake = random_phones(rng, 1, 5)
            cand = random_phones(rng, 0, 6)
            for model in random_models(rng):
                expected = oracle_cost(wake, cand, model)
                assert CostContext(wake, model).cost(cand) == expected
                assert align(wake, cand, model).L == expected / len(wake)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_reference_pair_distances(report):
    with report("reference pair scores match hand arithmetic"):
        unweighted = align(ALEXA, A_LESSON, CostModel.unweighted())
        assert abs(unweighted.L - 2 / 6) < 1e-9
        simple = align(
            ALEXA, A_LESSON, CostModel.simple(ScaleFactors(1.46, 1.30, 0.24))
        )
        assert abs(simple.L - (1.30 + 0.24) / 6) < 1e-9


def test_weight_table_invariants_and_round_trip(report, probe_scores, wake_words):
    with report("estimated weight tables normalize to mean one and round-trip"):
        table = build_weight_table(probe_scores, wake_words)
        table.validate(tolerance=1e-9)
        for mapping in (table.deletion, table.insertion):
            mean = sum(mapping.values()) / len(mapping)
            assert abs(mean - 1.0) < 1e-9
        for row in table.row_phones:
            values = [v for (a, _), v in table.substitution.items() if a == row]
            assert abs(sum(values) / len(values) - 1.0) < 1e-9

        buffer = io.StringIO()
        store_weight_table(table, buffer)
        buffer.seek(0)
        loaded = load_weight_table(buffer)
        for original, reloaded in (
            (table.deletion, loaded.deletion),
            (table.insertion, loaded.insertion),
            (table.substitution, loaded.substitution),
        ):
            assert original.keys() == reloaded.keys()
            for key, value in original.items():
                assert abs(value - reloaded[key]) <= 1e-12

        symbols = sorted(PhoneInventory.default().symbols)
        ones = WeightTable(
            deletion={p: 1.0 for p in symbols},
            insertion={p: 1.0 for p in symbols},
            substitution={(a, b): 1.0 for a in symbols for b in symbols if a != b},
            row_phones=tuple(symbols),
        )
        rng = random.Random(5)
        scales = ScaleFactors(1.46, 1.30, 0.24)
        for _ in range(50):
            wake = random_phones(rng, 1, 5, symbols)
            cand = random_phones(rng, 0, 6, symbols)
            advanced = CostContext(wake, CostModel.advanced(scales, ones)).cost(cand)
            assert advanced == CostContext(wake, CostModel.simple(scales)).cost(cand)


def brute_force_search(triggers, vocab, wakes, grid, blocklists):
    wake_map = {w.id: w for w in wakes}
    by_wake: dict[str, list[str]] = {}
    for t in triggers:
        by_wake.setdefault(t.wake_id, []).append(normalize_label(t.trigger_label))
    kept = {}
    for wake_id in by_wake:
        wake = wake_map[wake_id]
        blocked = {normalize_label(wake.text)}
        blocked.update(normalize_label(b) for b in wake.explicit_blocklist)
        blocked.update(normalize_label(b) for b in blocklists.get(wake_id, ()))
        kept[wake_id] = [c for c in vocab if normalize_label(c.label) not in blocked]
    best = None
    for point in grid.points():
        model = CostModel.simple(point)
        per_wake = {
            wake_id: max(rank_of(lbl, kept[wake_id], wake_map[wake_id], model) for lbl in labels)
            for wake_id, labels in by_wake.items()
        }
        objective = sum(per_wake.values())
        if best is None or objective < best[1]:
            best = (point, objective, per_wake)
    return best


def test_grid_search_agrees_with_brute_force(report, fixtures_dir, mini_dictionary, wake_words):
    with report("grid search equals brute-force enumeration on the bundled corpus"):
        with open(fixtures_dir / "triggers.tsv") as fh:
            triggers = load_trigger_labels(fh)
        vocab = dictionary_candidates(mini_dictionary)
        vocab.append(
            Candidate(
                label="a lesson",
                prons=tuple(phrase_phones(mini_dictionary, ["a", "lesson"])),
                source="trigger",
            )
        )
        blocklists = {w.id: build_blocklist(w, mini_dictionary) for w in wake_words}
        grid = Grid(0.25, 1.25, 0.25)

        start = time.perf_counter()
        result = grid_search(
            triggers, vocab, wake_words, grid, variant="simple", blocklists=blocklists
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

        point, objective, per_wake = brute_force_search(
            triggers, vocab, wake_words, grid, blocklists
        )
        assert result.best == point
        assert result.objective == objective
        assert result.per_wake_worst_rank == per_wake
        assert result.grid_points_evaluated == 125

        assert Grid.default().point_count() == 9261

        wake = WakeWordSpec(id="W", text="wake", phones=("B", "AA"))
        flat = grid_search(
            [LabeledTrigger("W", "only")],
            [Candidate(label="only", prons=(("B", "IY"),))],
            [wake],
            Grid(0.0, 1.0, 0.5),
        )
        assert flat.best == ScaleFactors(0.0, 0.0, 0.0)


TIE_WAKE = WakeWordSpec(id="T", text="padded wake", phones=("B", "AA") * 5)


def tie_vocab():
    """Five candidates at L = 0.1, 0.2, 0.2, 0.2, 0.3 from TIE_WAKE."""
    out = []
    for label, positions in [
        ("one", (0,)), ("two a", (0, 2)), ("two b", (0, 4)),
        ("two c", (2, 6)), ("three", (0, 2, 4)),
    ]:
        phones = list(TIE_WAKE.phones)
        for pos in positions:
            phones[pos] = "IY" if phones[pos] == "B" else "UW"
        out.append(Candidate(label=label, prons=(tuple(phones),)))
    return out


def test_tied_boundary_sampling(report):
    with report("tied shortlist boundaries resolve by seeded sampling"):
        model = CostModel.unweighted()
        ranked = rank_candidates(tie_vocab(), TIE_WAKE, model, k=2, seed=0)
        assert ranked.boundary_pool_size == 3
        assert [i.candidate.label for i in ranked.items][0] == "one"

        drawn = set()
        for seed in range(1000):
            second = rank_candidates(tie_vocab(), TIE_WAKE, model, k=2, seed=seed)
            drawn.add(second.items[1].candidate.label)
        assert drawn == {"two a", "two b", "two c"}

        first = rank_candidates(tie_vocab(), TIE_WAKE, model, k=2, seed=41)
        again = rank_candidates(tie_vocab(), TIE_WAKE, model, k=2, seed=41)
        assert [i.candidate.label for i in first.items] == [
            i.candidate.label for i in again.items
        ]


def test_cross_validation_recovers_planted_triggers(report):
    with report("leave-one-out validation recovers the planted trigger counts"):
        wakes = [
            WakeWordSpec(id="WA", text="alpha", phones=("B", "AA", "B", "AA")),
            WakeWordSpec(id="WB", text="beta", phones=("K", "IY", "K", "IY")),
            WakeWordSpec(id="WC", text="gamma", phones=("SH", "UH", "SH")),
        ]
        vocab = [
            Candidate(label="bobaa", prons=(("B", "AA", "B", "AA"),)),
            Candidate(label="boba", prons=(("B", "AA", "B"),)),
            Candidate(label="keykey", prons=(("K", "IY", "K", "IY"),)),
            Candidate(label="keyki", prons=(("K", "IY", "K"),)),
            Candidate(label="shush", prons=(("SH", "UH", "SH"),)),
            Candidate(label="zuzzuz", prons=(("Z", "UH", "Z", "Z", "UH", "Z"),)),
        ]
        folds = {
            "WA": [LabeledTrigger("WA", "bobaa"), LabeledTrigger("WA", "boba")],
            "WB": [LabeledTrigger("WB", "keykey")],
            "WC": [],
        }
        hits = cross_validate(
            folds, vocab, wakes, Grid(0.5, 1.0, 0.5), variant="simple", k=100
        )
        assert hits == {"WA": 2, "WB": 1, "WC": 0}
        assert len(hits) == 3


def test_measurement_arithmetic(report):
    with report("replay windows, reproducibility bins, and agreement arithmetic"):
        def event(progress):
            from datetime import datetime, timezone

            ts = datetime(2019, 10, 1, tzinfo=timezone.utc)
            return TriggerEvent(ts, "m", progress, "VA1")

        assert verification_window(event(100.0), 3600.0) == (93.0, 103.0)
        assert verification_window(event(2.0), 3600.0) == (0.0, 5.0)
        assert verification_window(event(3599.0), 3600.0) == (3592.0, 3600.0)

        assert bin_reproducibility(0) == "none"
        assert bin_reproducibility(1) == "low"
        assert bin_reproducibility(3) == "low"
        assert bin_reproducibility(4) == "medium"
        assert bin_reproducibility(7) == "medium"
        assert bin_reproducibility(8) == "high"
        assert bin_reproducibility(10) == "high"

        a = ["accidental"] * 50 + ["wake-word-present"] * 50
        b = (
            ["accidental"] * 45 + ["wake-word-present"] * 5
            + ["accidental"] * 5 + ["wake-word-present"] * 45
        )
        assert abs(cohens_kappa(a, b) - 0.8) < 1e-9

        from triggercraft.harness import ActivationObservation

        short = ActivationObservation(event(1.0), led_on_s=1.99)
        long = ActivationObservation(event(1.0), led_on_s=2.0)
        assert classify_activation(short) == "local"
        assert classify_activation(long) == "local_plus_cloud"


def test_large_vocabulary_ranking_under_budget(report, weight_table):
    with report("130k-word shortlist build finishes in budget, batch-size invariant"):
        rng = random.Random(20260818)
        symbols = sorted(PhoneInventory.default().symbols)
        lines = []
        for i in range(130000):
            phones = rng.choices(symbols, k=rng.randint(2, 9))
            lines.append(f"SYN{i:06d}  {' '.join(phones)}\n")
        dictionary = load_dictionary(lines)
        vocab = dictionary_candidates(dictionary)
        assert len(vocab) == 130000

        wake = WakeWordSpec(id="VA1", text="Alexa", phones=ALEXA)
        model = CostModel.advanced(ScaleFactors(1.46, 1.30, 0.24), weight_table)
        start = time.perf_counter()
        ranked = rank_candidates(vocab, wake, model, k=100, seed=3)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        assert len(ranked.items) == 100
        assert [i.rank for i in ranked.items] == list(range(1, 101))

        # Batch invariance: bulk costs equal batches of one and the separate
        # backtracking DP, bit for bit.
        ctx = CostContext(wake.phones, model)
        bulk = ctx.best_costs([c.prons for c in vocab])
        for idx in random.Random(11).sample(range(len(vocab)), 2000):
            prons = vocab[idx].prons
            assert bulk[idx] == ctx.best_cost(prons)
            assert bulk[idx] / len(wake.phones) == distance_to_wakeword(wake, prons, model).L


def test_cli_outputs_match_golden_files(report, fixtures_dir, tmp_path):
    with report("command-line outputs are byte-identical to the committed golden files"):
        config = str(fixtures_dir / "config.json")

        def run(*argv):
            code = main(
                ["--config", config, "--no-timestamp", "--out", str(tmp_path), *argv]
            )
            assert code == 0

        run("rank", "--wake", "VA1")
        run("tune", "--triggers", str(fixtures_dir / "triggers.tsv"), "--loocv")
        run(
            "harness",
            "--events", str(fixtures_dir / "events.jsonl"),
            "--verification", str(fixtures_dir / "verification.jsonl"),
            "--adjudication", str(fixtures_dir / "adjudication.jsonl"),
        )
        transcripts = str(fixtures_dir / "transcripts.txt")
        run("rank", "--wake", "VA1", "--source", "transcripts", "--transcripts", transcripts)
        run("ngrams", "--n", "2", "--transcripts", transcripts)
        for name in (
            "rank_VA1_dictionary.tsv",
            "manifest_VA1_dictionary.tsv",
            "tuning_report.tsv",
            "harness_summary.tsv",
            "rank_VA1_1-gram.tsv",
            "rank_VA1_2-gram.tsv",
            "rank_VA1_3-gram.tsv",
            "manifest_VA1_2-gram.tsv",
            "ngrams_2.tsv",
        ):
            produced = (tmp_path / name).read_bytes()
            golden = (fixtures_dir / "golden" / name).read_bytes()
            assert produced == golden, f"{name} drifted from the golden copy"
