"""Workloads, timed iterations and output checks of petrel's benchmark.

Every workload drives petrel through its command-line entry point,
``petrel.cli.main``, in-process: exactly the quick-start commands, with
arguments generated from the benchmark seed.  The load is a closed
loop: one caller in one thread runs one workload iteration at a time.
Each iteration is timed in host seconds and scaled by the host speed
sampled while it ran (see speed.py); simulated statistics (awt,
makespan, speedup) are not measured here, they are pinned through the
SHA-256 of the files petrel writes.

This module imports only the standard library, so a fresh process can
import it before it starts timing the import of petrel.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "digests.json"

# the seed whose output digests are pinned in digests.json
DEFAULT_SEED = 1234

# ``petrel run`` draws the topology and the policy's stream from its seed.
# The run workloads keep that seed fixed, so every benchmark seed runs on
# the same edge-cloud and only the trace is drawn from the benchmark seed:
# across seeds the topology ranges from 51 to 71 VMs, which on its own
# moves daa-overload's decision count by +-13%.
CLUSTER_SEED = 1234

COMPARE_LAMBDAS = (1.0, 2.0)


@dataclass(frozen=True)
class Workload:
    """One set of petrel commands; ``scheduler=None`` makes it a compare sweep."""

    name: str
    scheduler: str | None = None
    tasks: int = 20_000
    arrival_rate: float = 1.0
    replicates: int = 30

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        if self.scheduler is None:
            return [["compare", "--lambda", ",".join(f"{lam:g}" for lam in COMPARE_LAMBDAS),
                     "--seeds", f"1..{self.replicates}", "--seed", str(seed), "--out", str(out)]]
        trace = out / "trace.csv"
        return [
            ["generate", "--trace", str(trace), "--tasks", str(self.tasks),
             "--lambda", f"{self.arrival_rate:g}", "--seed", str(seed)],
            ["run", "--trace", str(trace), "--scheduler", self.scheduler,
             "--seed", str(CLUSTER_SEED), "--out", str(out)],
        ]

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.scheduler is None:
            return ("comparison.csv",)
        return ("trace.csv", "records.csv", "summary.csv")

    def simulated_tasks(self, petrel) -> int:
        """Tasks simulated by one iteration."""
        if self.scheduler is None:
            cell = petrel.EdgeCloudConfig().task_count
            return len(petrel.SCHEDULER_NAMES) * len(COMPARE_LAMBDAS) * self.replicates * cell
        return self.tasks

    def build_config(self, petrel, seed: int, out: Path):
        """What the CLI builds before its first timed call: parsed arguments and the config."""
        parser = petrel.cli.build_parser()
        args = [parser.parse_args(argv) for argv in self.commands(seed, out)]
        config = petrel.EdgeCloudConfig()
        if self.scheduler is not None:
            config = config.override(task_count=self.tasks, arrival_rate=self.arrival_rate)
        return args, config

    def check_outputs(self, petrel, out: Path) -> list[str]:
        """Structural checks that hold for every seed; returns the problems found."""
        problems = []

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        if self.scheduler is None:
            expected = len(petrel.SCHEDULER_NAMES) * len(COMPARE_LAMBDAS)
            got = len(rows("comparison.csv")) - 1
            if got != expected:
                problems.append(f"comparison.csv has {got} rows, expected {expected}")
            return problems
        for name in ("trace.csv", "records.csv"):
            got = len(rows(name)) - 1
            if got != self.tasks:
                problems.append(f"{name} has {got} rows, expected {self.tasks}")
        header, values = rows("summary.csv")[:2]
        summary = dict(zip(header, values))
        if summary.get("task_count") != str(self.tasks) or summary.get("scheduler") != self.scheduler:
            problems.append(f"summary.csv does not describe {self.tasks} {self.scheduler} tasks")
        return problems


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("daa-overload", scheduler="daa", arrival_rate=4.0),
    Workload("greedy-fanout", scheduler="greedy"),
    Workload("compare-sweep"),
    Workload("daemon-io", scheduler="daemon-only"),
)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pins(seed: int, workload: str, path: Path = PINS_PATH) -> dict[str, str]:
    """Pinned digests of ``workload``'s outputs for ``seed``; empty when none are pinned."""
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed), {}).get(workload, {})


def import_petrel():
    """Import petrel from this checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "petrel" / "__init__.py").is_file():
        raise SystemExit(f"error: no petrel sources under {src}")
    sys.path.insert(0, str(src))
    import petrel
    import petrel.cli

    if not Path(petrel.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported petrel from {petrel.__file__}, not from {src}")
    return petrel


@dataclass
class Iteration:
    wall_s: float  # scaled to the reference host speed
    host_s: float  # host seconds, sampling included
    traced: bool
    digests: dict[str, str]
    errors: list[str]
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Runs iterations of one workload with one seed and checks each one's outputs.

    The expected digests are the pinned ones when the seed has pins,
    otherwise those of the first iteration, so every iteration of a run
    must reproduce the same bytes.
    """

    def __init__(self, petrel, workload: Workload, seed: int, out: Path,
                 pins: dict[str, str]):
        self.petrel = petrel
        self.workload = workload
        self.seed = seed
        self.out = out
        self.pins = dict(pins)
        self.expected = dict(pins)
        self.iterations: list[Iteration] = []

    def run(self, traced: bool) -> Iteration:
        """One iteration: petrel's commands timed, then their output files checked."""
        for name in self.workload.outputs:
            (self.out / name).unlink(missing_ok=True)
        gc.collect()
        main = self.petrel.cli.main
        sampler = SpeedSampler()
        tracer = None
        if traced:
            tracer = Tracer(self.petrel, self.petrel.EdgeCloudConfig().probe_latency_ms,
                            clock=sampler.clock)
            main = tracer.wrap(main, "cli.main")
        errors: list[str] = []
        digests: dict[str, str] = {}
        net = host = 0.0
        try:
            with sampler, tracer or contextlib.nullcontext(), \
                    contextlib.redirect_stdout(io.StringIO()):
                host_start, start = perf_counter(), sampler.clock()
                for argv in self.workload.commands(self.seed, self.out):
                    code = main(argv)
                    if code != 0:
                        errors.append(f"petrel {argv[0]} exited with code {code}")
                        break
                net, host = sampler.clock() - start, perf_counter() - host_start
            if not errors:
                errors += self.workload.check_outputs(self.petrel, self.out)
                digests = {name: sha256(self.out / name) for name in self.workload.outputs}
        except (Exception, SystemExit):  # one failed iteration must not end the run
            errors.append("iteration raised:\n" + traceback.format_exc())
        if digests and not self.expected:
            self.expected = dict(digests)
        for name, digest in digests.items():
            if digest != self.expected.get(name):
                kind = "pinned" if name in self.pins else "first-iteration"
                errors.append(f"digest mismatch in {name}: {digest},"
                              f" {kind} {self.expected.get(name)}")
        scale = sampler.scale()
        it = Iteration(net * scale, host, traced, digests, errors)
        if tracer is not None and not errors:
            it.layers = tracer.layer_metrics(net, scale)
        self.iterations.append(it)
        return it


def median(values) -> float:
    return statistics.median(values) if values else 0.0
