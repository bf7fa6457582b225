"""Run one powertalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload star-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; powertalk is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing
off: the pipeline repeats until ``--seconds`` of it have run (at least
once) and ``wall_s`` is the median repeat.  ``--trace 1`` runs the
pipeline three times (untraced, traced, untraced) and reports the
per-layer metrics of the traced pass; ``trace.overhead_s`` is the
traced pass minus the untraced pass after it, so both follow the first
pass, which also pays the process's first-run cost.  Every output is checked; a run fails on an
exception, a nonzero exit code or a failed check.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (metadata,
per-repeat times, problems, spans) goes to ``perfbench/results/``.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata as package_metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("star-sweep", "feeder-optimize", "star-validate")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5   # probes before and again after the timed pipeline

# (metric, unit); bounds live in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    The pipelines multiply small matrices, where a second BLAS thread
    only spin-waits: on a 2-core machine it doubled CPU time, gained
    nothing and widened the run-to-run spread.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup_seconds(grid_path: Path) -> list:
    """Times from process start to a parsed, validated grid, one per probe."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(grid_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(probe, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


class Attempts:
    """Runs of one pipeline: their times, failures and the problems found."""

    def __init__(self) -> None:
        self.walls: list = []
        self.failed = 0
        self.problems: list = []

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def once(self, workload, context=None) -> float:
        """Run and check the pipeline once; ``context`` wraps the run, not the check."""
        start = time.perf_counter()
        try:
            with context or contextlib.nullcontext():
                output = workload.run()
        except Exception as exc:  # a failing run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self._fail([f"{type(exc).__name__}: {exc}"], time.perf_counter() - start)
            return self.walls[-1]
        wall = time.perf_counter() - start
        problems = workload.check(output)
        if problems:
            self._fail(problems, wall)
        else:
            self.walls.append(wall)
        return wall

    def _fail(self, problems: list, wall: float) -> None:
        self.walls.append(wall)
        self.failed += 1
        self.problems.extend(problems)


def git_state() -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise OSError(done.stderr.strip())
        return done.stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise OSError("not the root of a git checkout")
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def run_metadata(workload, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git": git_state(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": package_metadata.version("scipy"),
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload.name,
        "seed": workload.seed,
        "sizes": workload.sizes(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import powertalk
        from perfbench import layers, spans, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import powertalk from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(powertalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: powertalk imported from {powertalk.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, RESULTS)
    except (OSError, powertalk.PowerTalkError) as exc:
        print(f"perfbench: set-up of {args.workload} failed: {exc}", file=sys.stderr)
        return 2

    attempts = Attempts()
    record = {"metadata": run_metadata(workload, nproc)}
    if args.trace:
        # the first pass absorbs the process's first-run cost; the overhead
        # compares the traced pass with the untraced one after it
        attempts.once(workload)
        tracer = spans.Tracer()
        traced = attempts.once(workload, layers.tracing(tracer))
        untraced = attempts.once(workload)
        values = layers.layer_metrics(tracer.spans, traced - untraced)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        record["spans"] = tracer.to_json()
    else:
        # machine speed can drift over seconds to minutes: probing on both
        # sides of the pipeline keeps one slow stretch from setting the median
        setup = setup_seconds(workload.grid_path)
        while sum(attempts.walls) < args.seconds or not attempts.walls:
            attempts.once(workload)
        setup += setup_seconds(workload.grid_path)
        record["setup_s"] = setup
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(attempts.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    result = {
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record.update(result=result, walls_s=attempts.walls, problems=attempts.problems)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for problem in attempts.problems:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} fail_frac = {attempts.failed / attempts.attempted:.6g} ratio "
          f"({attempts.failed} of {attempts.attempted} runs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
