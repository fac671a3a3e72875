"""Benchmark bihop's ``run_benchmark`` end to end, or trace it layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload null_all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload null_all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py          # every workload, each in its own process

With ``--trace 0`` a workload run reports runs_per_s, setup_s and
peak_rss_mb, plus failed_ratio on its human-readable lines.  With
``--trace 1`` it reports the per-layer metrics of ``tracing.py`` and
trace.overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Each run_benchmark call's
AUC/AP means are checked against ``fingerprints.json``; a mismatch or an
exception fails the call's cells and the command exits 1.

The workload seed selects the stored fingerprint entry ``seed mod N``
(N = entries recorded, see record_fingerprints.py); that entry's index
shifts the graph generator's seed and is the config's base_seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SCRIPT = Path(__file__).resolve()
HERE = SCRIPT.parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
TRACE_DIR = HERE / "out"
# Child processes that each import bihop and load the workload's dataset;
# setup_s is their median.
SETUP_REPEATS = 5
# Criterion 8's run-to-run tolerance on AUC/AP means.
TOLERANCE = 1e-9
BLAS_THREADS = 2
PROBE_TIMEOUT_S = 60


def pin_blas_threads() -> tuple:
    """Fix the BLAS thread count before numpy loads; returns (threads, nproc)."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def check_sources() -> Path:
    src = ROOT / "src"
    if not (src / "bihop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bihop sources at {src / 'bihop'}")
    return src


def import_bihop():
    """Import bihop from this checkout's sources, never from elsewhere."""
    src = check_sources()
    sys.path.insert(0, str(src))
    import bihop

    if Path(bihop.__file__).resolve().parent != (src / "bihop").resolve():
        raise SystemExit(f"perfbench: imported bihop from {bihop.__file__}, not {src}")
    return bihop


def load_fingerprints() -> dict:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)


def spec_for(bihop, workload, seed: int):
    return bihop.DatasetSpec(id=workload.name, source=workload.spec_source(seed))


def config_for(bihop, workload, seed: int):
    """One run per call, so every call is identical and checkable."""
    return bihop.BenchmarkConfig(
        datasets=(spec_for(bihop, workload, seed),),
        scorers=tuple(bihop.ScorerKind.parse(s) for s in workload.scorers),
        runs=1,
        base_seed=seed,
        **workload.grids,
    )


def fingerprint_of(summary) -> dict:
    """scorer -> [auc_mean, ap_mean] for a one-dataset Summary."""
    return {row.scorer.value: [row.auc_mean, row.ap_mean] for row in summary.rows}


def mismatches(summary, expected: dict) -> list:
    """Scorers whose AUC or AP mean misses the stored fingerprint."""
    got = fingerprint_of(summary)
    bad = []
    for scorer, (auc, ap) in expected.items():
        if scorer not in got:
            bad.append(scorer)
            continue
        g_auc, g_ap = got[scorer]
        if not (abs(g_auc - auc) <= TOLERANCE and abs(g_ap - ap) <= TOLERANCE):
            bad.append(scorer)
    return bad


def git_state() -> tuple:
    """(sha, dirty) of the checkout, or ("none", None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
        if head.returncode != 0:
            return "none", None
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none", None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment(threads: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha, dirty = git_state()
    return {
        "blas_threads": threads,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def probe_setup(workload, seed: int) -> None:
    """Child process: time ``import bihop`` plus ``load_dataset``."""
    pin_blas_threads()
    started = time.perf_counter()
    bihop = import_bihop()
    bihop.load_dataset(spec_for(bihop, workload, seed))
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def measure_setup(workload, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(SCRIPT), "--probe-setup",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{child.stderr}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Calls:
    """Timed, checked run_benchmark calls of one workload configuration."""

    def __init__(self, bihop, config, expected: dict):
        self.bihop = bihop
        self.config = config
        self.expected = expected
        self.cells = len(config.scorers) * config.runs
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, seconds: float, wrap=None) -> list:
        """Call run_benchmark until the next call would pass ``seconds``.

        At least one call is made.  Returns the wall times of the calls that
        completed; a call that raises ends the loop.
        """
        times = []
        started = time.perf_counter()
        while True:
            self.attempted += self.cells
            t0 = time.perf_counter()
            try:
                if wrap is None:
                    summary = self.bihop.run_benchmark(self.config)
                else:
                    with wrap():
                        summary = self.bihop.run_benchmark(self.config)
            except Exception as exc:
                self.failed += self.cells
                self.errors.append(f"run_benchmark raised {type(exc).__name__}: {exc}")
                return times
            times.append(time.perf_counter() - t0)
            if summary.missing:
                self.failed += self.cells
                self.errors.append(f"dataset missing: {summary.missing}")
            else:
                bad = mismatches(summary, self.expected)
                self.failed += len(bad)
                if bad:
                    self.errors.append(f"fingerprint mismatch: {', '.join(bad)}")
            elapsed = time.perf_counter() - started
            if elapsed + min(times) > seconds:
                return times


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    table = load_fingerprints()["workloads"][workload.name]
    seed = args.seed % len(table)
    threads, nproc = pin_blas_threads()
    check_sources()
    setup_s = measure_setup(workload, seed) if not args.trace else None
    bihop = import_bihop()
    env = environment(threads, nproc)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    config = config_for(bihop, workload, seed)
    spec = config.datasets[0]
    print(
        f"workload {workload.name}: seed {args.seed} -> entry {seed}, "
        f"graph {spec.source}, base_seed {config.base_seed}, "
        f"{len(config.scorers)} scorers, {config.runs} run per call"
    )
    calls = Calls(bihop, config, table[seed])
    metrics = {}
    call_s = None
    if not args.trace:
        times = calls.run(args.seconds)
        # The fastest call: other tenants of a shared machine only ever slow a
        # call down, and the median of a few long calls still carries that.
        metrics["runs_per_s"] = (config.runs / min(times) if times else 0.0, "runs/s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"  {len(times)} timed calls; setup_s is the median of {SETUP_REPEATS} processes")
    else:
        from tracing import ROOT_SPAN, Tracer

        # Alternate untraced and traced calls so drift and warm-up fall on
        # both sides of trace.overhead.
        tracer = Tracer()
        untraced, traced = [], []
        started = time.perf_counter()
        while True:
            plain = calls.run(0)
            if not plain:
                break
            with tracer.installed():
                wrapped = calls.run(0, wrap=lambda: tracer.span(ROOT_SPAN))
            if not wrapped:
                break
            untraced += plain
            traced += wrapped
            if time.perf_counter() - started + plain[0] + wrapped[0] > args.seconds:
                break
        if traced:
            metrics.update(tracer.layer_metrics())
            metrics["trace.overhead"] = (min(untraced) / min(traced) - 1.0, "ratio")
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            call_s = statistics.fmean(traced)
            print(f"  {len(untraced)} untraced and {len(traced)} traced calls, traced mean "
                  f"{call_s:.4f} s; spans in {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        is_time = call_s and (name.endswith(".s") or name == "harness.self_s")
        share = f"  {value / call_s:6.1%} of call" if is_time else ""
        print(f"  {name:<36} {fmt(value):>14} {unit:<8}{share}")
    print(f"  {'failed_ratio':<36} {fmt(calls.failed / calls.attempted):>14} ratio   "
          f"({calls.failed}/{calls.attempted} cells)")
    for error in calls.errors:
        print(f"  FAILED: {error}")
    correct = calls.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    check_sources()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(child.stderr)
            raise SystemExit(f"perfbench: workload {name} printed no result")
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe_setup:
        probe_setup(WORKLOADS[args.workload], args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
