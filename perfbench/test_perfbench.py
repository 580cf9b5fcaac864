"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

TC = run.load_program()

TINY = {
    "rank-dict": dict(words=3000, k=20, sample=50),
    "rank-ngrams": dict(words=400, lines=120, k=40, sample=40),
    "tune-loocv": dict(words=60, grid={"lo": 0.05, "hi": 1.05, "step": 0.25}, points=3),
    "harness-logs": dict(events=1500, media=5),
}


def _prepare(root: Path, name: str, seed: int = 5):
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    prepared = WORKLOADS[name](inputs, seed, **TINY[name])
    return prepared, run.Runner(TC, prepared.config, prepared.resources, prepared.jobs, root)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_job_passes_its_checks(tmp_path, name):
    prepared, runner = _prepare(tmp_path, name)
    _, config = runner.setups()
    samples = runner.round(config) + runner.round(config)
    assert len(samples) == 2 * len(prepared.jobs)
    # Repeated jobs write the same bytes, so each is kept and checked once.
    assert len(runner.kept) == len(prepared.jobs)
    assert run.verify(prepared, samples, runner.kept, references=None) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    files = []
    for n, seed in enumerate((5, 5, 6)):
        root = tmp_path / str(n)
        root.mkdir()
        WORKLOADS[name](root, seed, **TINY[name])
        files.append({p.name: p.read_bytes() for p in sorted(root.iterdir())})
    assert files[0] == files[1]
    assert files[0] != files[2]


# One corruption per output kind: a listed distance, a rank, the tuning
# objective, and a planted activation count.
CORRUPT = {
    "rank-dict": ("workbench", "format_ranked_list", lambda text: text.replace("\t0.", "\t1.", 1)),
    "rank-ngrams": ("workbench", "format_ranked_list", lambda text: text.replace("\n1\t", "\n2\t", 1)),
    "tune-loocv": ("tuning", "format_tuning_report",
                   lambda text: re.sub(r"objective\t(\d+)", lambda m: f"objective\t{int(m[1]) + 1}", text)),
    "harness-logs": ("harness", "format_summary",
                     lambda text: re.sub(r"(\[activation\]\n.*\n\w+\t)(\d+)",
                                         lambda m: f"{m[1]}{int(m[2]) + 1}", text)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_corrupted_output_counts_as_a_failure(tmp_path, monkeypatch, name):
    prepared, runner = _prepare(tmp_path, name)
    _, config = runner.setups()
    module, attr, corrupt = CORRUPT[name]
    owner = getattr(TC, module)
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: corrupt(original(*a, **k)))
    samples = [runner.run_job(config, prepared.jobs[0])]
    errors = run.verify(prepared, samples, runner.kept, references=None)
    assert len(errors) == 1, errors


def test_a_job_that_raises_counts_as_a_failure(tmp_path, monkeypatch):
    prepared, runner = _prepare(tmp_path, "harness-logs")
    _, config = runner.setups()

    def broken(*args):
        raise TC.errors.ParseError("broken")

    monkeypatch.setattr(TC.harness, "parse_event_log", broken)
    samples = [runner.run_job(config, prepared.jobs[0])]
    errors = run.verify(prepared, samples, runner.kept, references=None)
    assert len(errors) == 1 and "broken" in errors[0]


def test_the_default_seed_output_differing_from_its_reference_fails(tmp_path):
    prepared, runner = _prepare(tmp_path, "harness-logs")
    _, config = runner.setups()
    samples = [runner.run_job(config, prepared.jobs[0])]
    errors = run.verify(prepared, samples, runner.kept, references={"harness": "0" * 64})
    assert len(errors) == 1 and "digest" in errors[0]


def _traced(tmp_path, name):
    prepared, runner = _prepare(tmp_path, name)
    measured = run.traced_run(TC, runner, 0, tmp_path / "trace.jsonl")
    assert run.verify(prepared, measured["samples"], runner.kept, references=None) == []
    return prepared, measured["metrics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_where_it_works(tmp_path, name):
    _, metrics = _traced(tmp_path, name)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    active = {m.split(".")[0] for m, (v, unit) in metrics.items() if unit == "s" and v > 0}
    expected = {
        "rank-dict": {"lexicon", "weights", "candidates", "distance", "workbench", "trace"},
        "rank-ngrams": {"lexicon", "candidates", "distance", "workbench", "trace"},
        "tune-loocv": {"lexicon", "weights", "candidates", "distance", "tuning", "workbench",
                       "trace"},
        "harness-logs": {"harness", "workbench", "trace"},
    }[name]
    assert active == expected


def test_traced_counts_match_the_planted_inputs(tmp_path):
    prepared, metrics = _traced(tmp_path / "harness", "harness-logs")
    assert metrics["harness.unverified"][0] == prepared.notes["unverified"]
    assert metrics["harness.orphans"][0] == prepared.notes["orphans"]
    prepared, metrics = _traced(tmp_path / "ngrams", "rank-ngrams")
    dropped = sum(prepared.notes["ngrams_dropped_oov"].values())
    assert metrics["candidates.ngrams_dropped_oov"][0] == dropped
    # K+1 cost contexts per ranked vocabulary, three vocabularies per job.
    assert metrics["distance.contexts"][0] == 3 * (TINY["rank-ngrams"]["k"] + 1)
    assert metrics["candidates.scored"][0] == pytest.approx(
        sum(job.work for job in prepared.jobs) / len(prepared.jobs)
    )


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "job_s", "items_per_s",
                                                       "peak_rss_mb"]


def test_recorded_digests_become_the_reference(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference_digests.json")
    argv = ["--workload", "harness-logs", "--seed", str(run.DEFAULT_SEED), "--seconds", "0"]
    for extra in (["--record-digests"], []):
        assert run.main(argv + extra) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["attempted"] == 1
    assert list(json.loads(run.REFERENCE.read_text())) == ["harness-logs"]
