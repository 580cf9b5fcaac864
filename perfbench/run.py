"""Benchmark of the triggercraft command-line workloads.

Run from the repository root::

    python3 perfbench/run.py --workload rank-dict --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed`` and starts one child
process (this script with ``--child``) that imports triggercraft, loads the
resources (config, dictionary, wake words, weight table) several times to
time set-up, then runs the workload's CLI jobs one after another (a closed
loop with one client) for ``--seconds``.  The child keeps one copy of every
distinct output of each job; this process checks them all once the child
has ended, so none of the generator's or the checks' data is resident in
the measured process.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced rounds of jobs with rounds in which every
module's entry points are wrapped, and reports per-layer self times and
counts, writing the spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the child
# process inherits it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Job, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 1
SETUP_FIRST = 3  # set-ups before the first job
SETUP_SLICE_S = 0.2  # set-up time measured after each round of jobs
SETUP_MOST = 200  # set-ups in a row, at most
CHILD = "--child"


def load_program():
    """Import triggercraft from this checkout's ``src``, and nowhere else."""
    if not (SRC / "triggercraft" / "__init__.py").is_file():
        sys.exit(f"perfbench: no triggercraft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triggercraft
    import triggercraft.workbench

    if Path(triggercraft.__file__).resolve().parent != SRC / "triggercraft":
        sys.exit(f"perfbench: imported triggercraft from {triggercraft.__file__}")
    return triggercraft


# ---------------------------------------------------------------------------
# The measured process.


class Runner:
    """Runs a workload's set-up and CLI jobs in this process.

    Every job's outputs are digested after it ends, and the first output
    with each (job, digest) is copied under ``work/kept`` to be checked.
    """

    def __init__(self, tc, config: Path, resources, jobs: list[Job], work: Path):
        self.tc = tc
        self.config = config
        self.resources = resources
        self.jobs = jobs
        self.out_dir = work / "out"
        self.kept_dir = work / "kept"
        self.kept: dict[tuple[str, str], Path] = {}
        self.count = 0  # jobs run

    def setup(self):
        """Load the config and every resource its jobs use; returns (seconds, config)."""
        start = perf_counter()
        config = self.tc.workbench.load_config(self.config)
        for name in self.resources:
            getattr(config, name)()
        return perf_counter() - start, config

    def run_job(self, config, job: Job, span=nullcontext()) -> dict:
        """Run one CLI command in-process inside ``span``.

        Returns the sample: job key, seconds, the failure if the job raised
        or exited non-zero, and the digest of its outputs.
        """
        wb = self.tc.workbench
        for name in job.outputs:
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()  # every job starts from a collected heap
        argv = ["--config", str(self.config), "--no-timestamp",
                "--out", str(self.out_dir), *job.argv]
        start = perf_counter()
        with span:
            try:
                args = wb.build_parser().parse_args(argv)
                config.out_dir = Path(args.out)
                code = args.func(config, args, wb.OutputWriter(config.out_dir, not args.no_timestamp))
                problem = None if code == 0 else f"exit code {code}"
            except Exception:  # a failed job is counted, and the loop goes on
                problem = traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        self.count += 1
        found = None
        if problem is None:
            try:
                found = digest(self.out_dir, job.outputs)
            except OSError:
                problem = traceback.format_exc(limit=1)
        if found is not None and (job.key, found) not in self.kept:
            kept = self.kept_dir / f"{job.key}-{len(self.kept)}"
            kept.mkdir(parents=True)
            for name in job.outputs:
                shutil.copyfile(self.out_dir / name, kept / name)
            self.kept[job.key, found] = kept
        if problem is not None:
            print(f"FAILED {job.key}: {problem}", file=sys.stderr)
        return {"key": job.key, "seconds": seconds, "problem": problem, "digest": found}

    def round(self, config, on_job=None) -> list[dict]:
        """Every distinct job once."""
        return [
            self.run_job(config, job, on_job(f"job-{self.count}") if on_job else nullcontext())
            for job in self.jobs
        ]

    def setups(self, least: int = 1, floor: float = 0.0, on_setup=None):
        """Set up at least ``least`` times and until ``floor`` seconds of
        set-up are measured, at most ``SETUP_MOST`` times.

        Returns every set-up's seconds and the last config.
        """
        times, config = [], None
        while len(times) < least or (sum(times) < floor and len(times) < SETUP_MOST):
            config = None
            gc.collect()
            with on_setup(f"setup-{len(times)}") if on_setup else nullcontext():
                seconds, config = self.setup()
            times.append(seconds)
        return times, config

    def loop(self, seconds: float) -> tuple[list[float], list[dict]]:
        """Set up, then run whole rounds of jobs until ``seconds`` have passed.

        After every round the resources are loaded again for
        ``SETUP_SLICE_S``, and the next round runs on them, so that set-up
        is timed all through the run, under the same host conditions as the
        jobs.  Returns the set-up seconds and the job samples.
        """
        setup_times, config = self.setups(least=SETUP_FIRST)
        samples = []
        start = perf_counter()
        while not samples or perf_counter() - start < seconds:
            samples += self.round(config)
            config = None  # one set of resources in memory at a time
            more, config = self.setups(floor=SETUP_SLICE_S)
            setup_times += more
        return setup_times, samples


def traced_run(tc, runner: Runner, seconds: float, trace_file: Path) -> dict:
    """Alternate untraced and traced rounds of jobs for ``seconds``.

    The wrappers are installed around each traced round and taken off
    again, so that both kinds of round see the same host conditions.
    """
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tc):
        setup_times, config = runner.setups(
            SETUP_FIRST, on_setup=lambda name: tracer.root(tracing.SETUP, name))
    untraced, traced = [], []
    start = perf_counter()
    for n in itertools.count():
        if n >= 2 and perf_counter() - start >= seconds:
            break
        if n % 2:
            with tracing.installed(tracer, tc):
                traced += runner.round(config, lambda name: tracer.root(tracing.JOB, name))
        else:
            untraced += runner.round(config)
    untraced_s = statistics.fmean(s["seconds"] for s in untraced)
    metrics = tracer.per_layer(len(traced), len(setup_times), untraced_s)
    trace_file.parent.mkdir(exist_ok=True)
    tracer.dump(trace_file)
    modules: dict[str, float] = {}
    for name, self_s in tracer.self_times()[0].items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s / len(traced)
    return {"setup_times": setup_times, "samples": untraced + traced,
            "metrics": metrics, "modules": modules}


def measure(spec_path: Path) -> None:
    """The child process: set up, run the jobs, and write what it measured."""
    spec = json.loads(spec_path.read_text())
    tc = load_program()
    # As the CLI does; the program's own messages go to standard error.
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    jobs = [Job(**job) for job in spec["jobs"]]
    runner = Runner(tc, Path(spec["config"]), spec["resources"], jobs, Path(spec["work"]))
    if spec["trace"]:
        result = traced_run(tc, runner, spec["seconds"], Path(spec["trace_file"]))
    else:
        setup_times, samples = runner.loop(spec["seconds"])
        result = {"setup_times": setup_times, "samples": samples}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["kept"] = [[key, found, str(path)] for (key, found), path in runner.kept.items()]
    Path(spec["result"]).write_text(json.dumps(result))


# ---------------------------------------------------------------------------
# Checks and metrics, in the parent process.


def verify(prepared, samples: list[dict], kept: dict, references: dict | None) -> list[str]:
    """One message per failed job.

    Each distinct (job, digest) output is checked once; every job with
    that digest wrote the same bytes, so it passes or fails with it.
    """
    jobs = {job.key: job for job in prepared.jobs}
    checked: dict[tuple[str, str], str | None] = {}
    errors = []
    for sample in samples:
        key, found, problem = sample["key"], sample["digest"], sample["problem"]
        if problem is None:
            if (key, found) not in checked:
                checked[key, found] = check_output(prepared, jobs[key], kept[key, found], found,
                                                   references)
            problem = checked[key, found]
        if problem is not None:
            errors.append(f"{key}: {problem}")
            print(f"FAILED {key}: {problem}", file=sys.stderr)
    return errors


def check_output(prepared, job: Job, directory: Path, found: str, references) -> str | None:
    try:
        errors = prepared.check(job, directory)
    except Exception:  # unreadable output is a failed check
        errors = [traceback.format_exc(limit=3)]
    if references is not None and found != references.get(job.key):
        errors.append(f"output digest {found[:12]} differs from reference "
                      f"{str(references.get(job.key))[:12]}")
    return "; ".join(errors[:5]) if errors else None


def describe(values: list[float]) -> str:
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    text = f"median {statistics.median(values):.6g} (n={len(values)})"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return text + f", p{pct} {cut:.6g}"
    return text


def end_to_end(prepared, measured: dict, errors: list[str]) -> dict:
    # A round runs each distinct job once (one per wake word on the rank
    # workloads, whose jobs differ in length) and is one sample: its mean
    # job time, and its work items over its time.
    setup_times, samples = measured["setup_times"], measured["samples"]
    work = {job.key: job.work for job in prepared.jobs}
    size = len(prepared.jobs)
    rounds = [samples[i : i + size] for i in range(0, len(samples), size)]
    round_s = [statistics.fmean(s["seconds"] for s in r) for r in rounds]
    rates = [sum(work[s["key"]] for s in r) / sum(s["seconds"] for s in r) for r in rounds]
    kind = prepared.jobs[0].argv[0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(round_s), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    # The same figures under the names the workloads are discussed with.
    print(f"setup_s {describe(setup_times)} s")
    for metric, command in (("rank_s", "rank"), ("tune_s", "tune"), ("harness_s", "harness")):
        print(f"{metric} " + (f"{describe(round_s)} s" if kind == command else "n/a"))
    rate = f"{describe(rates)} {prepared.work_unit}/s"
    print(f"rank_cands_per_s {rate if kind == 'rank' else 'n/a'}")
    print(f"harness_records_per_s {rate if kind == 'harness' else 'n/a'}")
    if kind == "tune":
        print(f"tune_items_per_s {rate}")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB (the measuring process)")
    print("job seconds: " + " ".join(f"{s['key']}={s['seconds']:.4g}" for s in samples))
    print(f"error_rate {len(errors) / len(samples):.6g} ({len(errors)} of {len(samples)} jobs)")
    return metrics


def per_layer(measured: dict) -> dict:
    metrics = {name: tuple(value) for name, value in measured["metrics"].items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    modules = sorted(measured["modules"].items(), key=lambda item: -item[1])
    job_s = metrics["trace.job_s"][0]
    print("self seconds per job by module: " + " ".join(
        f"{name}={seconds:.4g}" for name, seconds in modules
    ) + f"; sum {sum(measured['modules'].values()):.4g}, traced job {job_s:.4g}")
    print(f"unwrapped glue (workbench.self_s) is {metrics['workbench.self_s'][0] / job_s:.2%} "
          f"of the traced job time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the default-seed reference")
    args = parser.parse_args(argv)
    if not (SRC / "triggercraft" / "__init__.py").is_file():
        sys.exit(f"perfbench: no triggercraft sources under {SRC}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload](inputs, args.seed)
        print(f"workload {args.workload} seed {args.seed}", prepared.notes or "", flush=True)
        spec = {
            "config": str(prepared.config),
            "resources": prepared.resources,
            "jobs": [asdict(job) for job in prepared.jobs],
            "work": str(work),
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_file": str(ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"),
            "result": str(work / "measured.json"),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        child = subprocess.run([sys.executable, __file__, CHILD, str(work / "spec.json")],
                               timeout=2 * args.seconds + 120)
        if child.returncode != 0:
            sys.exit(f"perfbench: the measuring process exited with code {child.returncode}")
        measured = json.loads((work / "measured.json").read_text())
        references = None
        if args.seed == DEFAULT_SEED and not args.record_digests:
            references = json.loads(REFERENCE.read_text()).get(args.workload, {})
        kept = {(key, found): Path(path) for key, found, path in measured["kept"]}
        samples = measured["samples"]
        errors = verify(prepared, samples, kept, references)
        if args.trace == 0:
            metrics = end_to_end(prepared, measured, errors)
        else:
            metrics = per_layer(measured)
        if args.record_digests and not errors:
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            stored[args.workload] = {s["key"]: s["digest"] for s in samples}
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not errors,
        "attempted": len(samples),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD]:
        measure(Path(sys.argv[2]))
    else:
        sys.exit(main())
