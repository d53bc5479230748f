"""Run one workload of petrel's benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; petrel is imported from the ``src`` directory next
to this one.  Workloads (see harness.py): daa-overload, greedy-fanout,
compare-sweep, daemon-io.  Without ``--workload`` every workload runs,
each in a fresh process, and the exit code is 1 unless all were correct.

The first iteration is a warm-up whose outputs are checked but whose
time is not counted; iterations then repeat until ``--seconds`` have
passed since the warm-up started.  Every iteration's output files must
match the digests pinned in digests.json for the seed, or, for a seed
without pins, those of the first iteration; the digests are printed so
two commits can be compared byte for byte on any seed.

Times are host seconds scaled to a reference host speed, sampled while
each timed region runs (see speed.py), because this host's speed swings
by up to 2x with its neighbours' load; the host seconds are printed
beside them.  With ``--trace 0`` the end-to-end metrics are reported:
the median ``wall_s`` of the timed iterations, ``tasks_per_s`` at that
median, ``setup_s`` as the median over fresh processes that import
petrel and build the workload's config, and ``peak_rss_mb`` of this
process, which runs only this workload.  With ``--trace 1`` untraced and traced
iterations alternate and the per-layer metrics of the traced ones are
reported, with ``trace.overhead_s`` (traced minus untraced median wall)
and ``trace.coverage``.

Lines before the last describe the host and the run; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from harness import (BENCH_DIR, DEFAULT_SEED, ROOT, WORKLOADS, Runner, import_petrel, load_pins,
                     median)

# fresh processes timed for setup_s
SETUP_PROCESSES = 7

WORK_DIR = BENCH_DIR / "_work"


def layer_unit(name: str) -> str:
    if name == "trace.coverage":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    return "count"


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, seed: int, out: Path) -> list[tuple[float, float]]:
    """(scaled, host) seconds of set-up in each of SETUP_PROCESSES fresh processes."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed), str(out)],
            capture_output=True, text=True, timeout=120, check=True)
        scaled, host = proc.stdout.split()[-2:]
        times.append((float(scaled), float(host)))
    return times


def iterate(runner: Runner, seconds: float, traced_run: bool) -> None:
    """Warm up, then iterate while the next iteration should end within ``seconds`` of the start.

    When tracing, traced and untraced iterations alternate; at least one
    of each kind that the run reports is always made.
    """
    start = perf_counter()
    runner.run(traced=False)
    untraced = traced = 0
    while True:
        typical = median([it.host_s for it in runner.iterations])
        owed = not untraced or (traced_run and not traced)
        if not owed and perf_counter() - start + typical > seconds:
            return
        trace_this = traced_run and traced < untraced
        runner.run(traced=trace_this)
        traced += trace_this
        untraced += not trace_this


def end_to_end(runner: Runner, petrel,
               setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics as {name: (value, unit)}, plus notes on how they were taken."""
    timed = [it for it in runner.iterations[1:] if not it.traced and not it.errors]
    walls = [it.wall_s for it in timed]
    wall = median(walls)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (wall, "s"),
        "tasks_per_s": (runner.workload.simulated_tasks(petrel) / wall if wall else 0.0, "1/s"),
        "setup_s": (median([scaled for scaled, _ in setup]), "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    notes = [
        f"wall_s: median of {len(walls)} timed iterations: " + " ".join(f"{w:.4f}" for w in walls),
        "  host seconds, sampling included: " + " ".join(f"{it.host_s:.4f}" for it in timed),
        f"setup_s: median of {len(setup)} fresh processes: "
        + " ".join(f"{scaled:.4f}" for scaled, _ in setup),
        "  host seconds: " + " ".join(f"{host:.4f}" for _, host in setup),
    ]
    return metrics, notes


def per_layer(runner: Runner) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics as {name: (value, unit)}, notes, and counters that failed to repeat."""
    traced = [it for it in runner.iterations if it.traced and not it.errors]
    untraced = [it.wall_s for it in runner.iterations[1:] if not it.traced and not it.errors]
    problems = []
    metrics = {}
    if traced:
        for name in traced[0].layers:
            values = [it.layers[name] for it in traced]
            unit = layer_unit(name)
            if unit != "count":
                metrics[name] = (median(values), unit)
                continue
            if len(set(values)) > 1:
                problems.append(f"counter {name} drifted between traced iterations: {values}")
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_s"] = (median([it.wall_s for it in traced]) - median(untraced), "s")
    notes = [f"per-layer: medians of {len(traced)} traced iterations;"
             f" overhead against {len(untraced)} untraced"]
    return metrics, notes, problems


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is that workload's alone."""
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        correct = (correct and proc.returncode == 0
                   and json.loads(proc.stdout.splitlines()[-1])["correct"])
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="the workload to run (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS[args.workload]

    petrel = import_petrel()
    load_before = os.getloadavg()
    WORK_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        setup = [] if args.trace else measure_setup(workload, args.seed, out)
        runner = Runner(petrel, workload, args.seed, out, load_pins(args.seed, workload.name))
        iterate(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    load_after = os.getloadavg()

    problems = []
    if args.trace:
        metrics, notes, problems = per_layer(runner)
    else:
        metrics, notes = end_to_end(runner, petrel, setup)
    attempted = len(runner.iterations)
    failed = sum(1 for it in runner.iterations if it.errors)

    nproc = os.cpu_count()
    busy = max(load_before[0], load_after[0]) > nproc
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host nproc={nproc} load_before={load_before[0]:.2f} load_after={load_after[0]:.2f}"
          f" python={platform.python_version()} numpy={sys.modules['numpy'].__version__}"
          f" git={git_sha()}" + (" BUSY: load average exceeded nproc" if busy else ""))
    pinned = "pinned" if runner.pins else "unpinned seed"
    for name, digest in runner.expected.items():
        print(f"digest {name} {digest} ({pinned})")
    for error in [e for it in runner.iterations for e in it.errors] + problems:
        print(f"error: {error}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} iterations failed)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
