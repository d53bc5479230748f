"""Command-line front end: trace generation, single runs, and sweeps.

Exit codes are a stable contract: 0 on success, 1 when a run fails at
runtime, 2 for usage or config mistakes.  All randomness flows from one
base seed (flag, then ``PETREL_SEED``, then the config file); sweep
cells derive their own sub-seeds from it, so a sweep is reproducible
regardless of which cells run or in what order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import dataclass

from .config import ConfigError, EdgeCloudConfig, build_topology, load_config
from .engine import SimulationError, simulate
from .metrics import RunSummary, summarize
from .schedulers import SAMPLING_SCHEDULERS, SCHEDULER_NAMES
from .seeding import derive_seed
from .workload import TraceFormatError, format_number, generate_trace, load_trace, save_trace

RECORD_COLUMNS = (
    "task_id", "class", "daemon_id", "executor", "assign_ms", "start_ms",
    "completion_ms", "turnaround_ms", "service_ms", "weighted_turnaround",
    "speedup", "delays", "bound_violated",
)

SUMMARY_FIELDS = (
    "task_count", "awt", "avg_speedup", "makespan_min", "makespan_max",
    "makespan_avg", "bound_violations",
)

COMPARE_METRICS = ("awt", "avg_speedup", "makespan_min", "makespan_max", "makespan_avg")


def _check_policy_fits(config: EdgeCloudConfig, scheduler: str) -> None:
    if scheduler in SAMPLING_SCHEDULERS and config.cloudlet_count < 2:
        raise ConfigError.at(
            "cloudlet_count", f"{scheduler} samples non-daemon cloudlets and needs at"
            f" least 2 cloudlets, got {config.cloudlet_count}"
        )


def _check_has_tasks(config: EdgeCloudConfig, command: str) -> None:
    # generate may write an empty trace; a run over one has no metrics
    if config.task_count < 1:
        raise ConfigError.at(
            "task_count", f"{command} needs at least 1 task, got {config.task_count}"
        )


class _Formatted(dict):
    """``format_number`` of each key, computed on first lookup.  Keying on
    the value is exact: equal values format alike, ``0.0`` and ``-0.0``
    both print ``0``, and no record holds a NaN."""

    def __missing__(self, x: float) -> str:
        text = self[x] = format_number(x)
        return text


def write_records_csv(records, path) -> None:
    # no field can need quoting (numbers, class tokens, "cloud", true/false),
    # so joined lines are the bytes csv.writer would write
    fmt = format_number
    # service times take a few values (benchmark x executor speed), and a task
    # that never queued (start == assign) repeats its turnaround, weighted
    # turnaround and speedup across tasks; a queued task's values are mostly
    # distinct, so they are formatted directly
    memo = _Formatted()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for r in records:
            assign = fmt(r.assign_time)
            if r.start_time == r.assign_time:
                start = assign
                turnaround, weighted, speedup = (memo[r.turnaround], memo[r.weighted_turnaround],
                                                 memo[r.speedup])
            else:
                start = fmt(r.start_time)
                turnaround, weighted, speedup = (fmt(r.turnaround), fmt(r.weighted_turnaround),
                                                 fmt(r.speedup))
            fh.write(
                f"{r.task_id},{r.task_class.token},{r.daemon_id},"
                f"{'cloud' if r.executor is None else r.executor},"
                f"{assign},{start},{fmt(r.completion_time)},{turnaround},"
                f"{memo[r.service_time]},{weighted},{speedup},{r.delays_taken},"
                f"{'' if r.bound_violated is None else 'true' if r.bound_violated else 'false'}\n"
            )


def _summary_scalars(summary: RunSummary) -> dict[str, float | int]:
    return {name: getattr(summary, name) for name in SUMMARY_FIELDS}


def write_summary(summary: RunSummary, path, fmt: str, *, extra: dict | None = None) -> None:
    scalars = dict(extra or {})
    scalars.update(_summary_scalars(summary))
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(scalars.keys())
            writer.writerow(
                format_number(v) if isinstance(v, float) else str(v)
                for v in scalars.values()
            )
    else:
        payload = dict(scalars)
        payload["per_cloudlet_makespan"] = {
            str(k): v for k, v in sorted(summary.per_cloudlet_makespan.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")


@dataclass(frozen=True)
class ComparisonCell:
    """One simulation of a sweep: a (scheduler, λ, replicate) triple."""

    scheduler: str
    arrival_rate: float
    replicate: int
    summary: RunSummary


@dataclass(frozen=True)
class ComparisonRow:
    """Mean and sample standard deviation over replicates of one cell group."""

    scheduler: str
    arrival_rate: float
    replicates: int
    stats: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[ComparisonRow]
    cells: list[ComparisonCell]
    seeds: list[int]


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def run_comparison(config: EdgeCloudConfig, schedulers, lambdas, replicates,
                   base_seed: int) -> ComparisonReport:
    """Run the full scheduler × λ × replicate sweep.

    Within one (λ, replicate) cell every scheduler sees the identical
    trace and topology, so differences are attributable to the policy
    alone; each run still gets its own policy stream derived from
    (scheduler, λ, replicate).
    """
    if not schedulers or not lambdas or not replicates:
        raise ConfigError("compare needs at least one scheduler, one lambda, one seed")
    _check_has_tasks(config, "compare")
    for name in schedulers:
        if name not in SCHEDULER_NAMES:
            raise ConfigError(
                f"unknown scheduler {name!r}; choose from {', '.join(SCHEDULER_NAMES)}"
            )
        _check_policy_fits(config, name)
    # one config per λ, so every rate passes the config's own checks before any run
    sweep = [(lam, config.override(arrival_rate=lam)) for lam in lambdas]
    cells: list[ComparisonCell] = []
    grouped: dict[tuple[str, float], list[RunSummary]] = {}
    for lam, lam_config in sweep:
        for rep in replicates:
            cell_seed = derive_seed(base_seed, "cell", repr(float(lam)), rep)
            trace = generate_trace(lam_config, derive_seed(cell_seed, "trace"))
            topology = build_topology(lam_config, seed=cell_seed)
            for name in schedulers:
                run_seed = derive_seed(base_seed, "run", name, repr(float(lam)), rep)
                result = simulate(lam_config, trace, name, run_seed, topology=topology)
                summary = summarize(result.records, topology)
                cells.append(ComparisonCell(name, lam, rep, summary))
                grouped.setdefault((name, lam), []).append(summary)
    rows = [
        ComparisonRow(
            scheduler=name,
            arrival_rate=lam,
            replicates=len(summaries),
            stats={
                metric: _mean_std([getattr(s, metric) for s in summaries])
                for metric in COMPARE_METRICS
            },
        )
        for (name, lam), summaries in grouped.items()
    ]
    return ComparisonReport(rows=rows, cells=cells, seeds=list(replicates))


def write_comparison(report: ComparisonReport, path, fmt: str) -> None:
    seeds_label = ",".join(str(s) for s in report.seeds)
    if fmt == "csv":
        header = ["scheduler", "lambda", "replicates", "seeds"]
        for metric in COMPARE_METRICS:
            header += [f"{metric}_mean", f"{metric}_std"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in report.rows:
                out = [row.scheduler, format_number(row.arrival_rate),
                       str(row.replicates), seeds_label]
                for metric in COMPARE_METRICS:
                    mean, std = row.stats[metric]
                    out += [format_number(mean), format_number(std)]
                writer.writerow(out)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for row in report.rows:
                payload = {
                    "scheduler": row.scheduler,
                    "lambda": row.arrival_rate,
                    "replicates": row.replicates,
                    "seeds": report.seeds,
                }
                for metric in COMPARE_METRICS:
                    mean, std = row.stats[metric]
                    payload[metric] = {"mean": mean, "std": std}
                fh.write(json.dumps(payload, sort_keys=True) + "\n")


def comparison_table(report: ComparisonReport) -> str:
    """Human-readable aligned table, one line per (scheduler, λ)."""
    header = ["scheduler", "lambda"] + list(COMPARE_METRICS)
    lines = [header]
    for row in report.rows:
        cells = [row.scheduler, f"{row.arrival_rate:g}"]
        for metric in COMPARE_METRICS:
            mean, std = row.stats[metric]
            cells.append(f"{mean:.4f} ± {std:.4f}")
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    rendered = []
    for line in lines:
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(rendered) + "\n"


def _load_cli_config(args) -> EdgeCloudConfig:
    if getattr(args, "paper_defaults", False):
        config = EdgeCloudConfig()
    elif args.config is not None:
        config = load_config(args.config)
    else:
        config = EdgeCloudConfig()
    overrides = {}
    if getattr(args, "tasks", None) is not None:
        overrides["task_count"] = args.tasks
    rate = getattr(args, "arrival_rate", None)
    if rate is not None and not isinstance(rate, list):
        overrides["arrival_rate"] = rate
    if overrides:
        try:
            config = config.override(**overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return config


def _resolve_seed(args, config: EdgeCloudConfig) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PETREL_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"PETREL_SEED must be an integer, got {env!r}") from None
    return config.seed


def _ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    config = _load_cli_config(args)
    seed = _resolve_seed(args, config)
    trace = generate_trace(config, seed)
    if args.trace is not None:
        out_path = args.trace
        parent = os.path.dirname(out_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    else:
        out_path = os.path.join(_ensure_out_dir(args.out), "trace.csv")
    save_trace(trace, out_path)
    print(f"wrote {len(trace)} tasks to {out_path} (seed {seed})")
    return 0


def cmd_run(args) -> int:
    config = _load_cli_config(args)
    _check_policy_fits(config, args.scheduler)
    seed = _resolve_seed(args, config)
    if args.trace is not None:
        trace = load_trace(args.trace)
        if not trace:
            raise TraceFormatError(f"{args.trace}: the trace has no tasks")
    else:
        _check_has_tasks(config, "run")
        trace = generate_trace(config, derive_seed(seed, "trace"))
    result = simulate(config, trace, args.scheduler, seed)
    summary = summarize(result.records, result.topology)

    out_dir = _ensure_out_dir(args.out)
    records_path = os.path.join(out_dir, "records.csv")
    write_records_csv(result.records, records_path)
    suffix = "csv" if args.format == "csv" else "jsonl"
    summary_path = os.path.join(out_dir, f"summary.{suffix}")
    write_summary(summary, summary_path, args.format,
                  extra={"scheduler": args.scheduler, "seed": seed})

    print(f"scheduler      {args.scheduler}")
    print(f"seed           {seed}")
    print(f"tasks          {summary.task_count}")
    print(f"awt            {summary.awt:.4f}")
    print(f"avg_speedup    {summary.avg_speedup:.4f}")
    print(f"makespan_min   {summary.makespan_min:.1f}")
    print(f"makespan_max   {summary.makespan_max:.1f}")
    print(f"makespan_avg   {summary.makespan_avg:.1f}")
    print(f"bound_violations {summary.bound_violations}")
    print(f"wrote {records_path} and {summary_path}")
    return 0


def _parse_seed_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"--seeds expects A..B or a single integer, got {text!r}") from None
    if hi < lo:
        raise ConfigError(f"--seeds range is empty: {text!r}")
    return list(range(lo, hi + 1))


def _split_list(values, cast):
    out = []
    for value in values:
        for piece in str(value).split(","):
            piece = piece.strip()
            if piece:
                out.append(cast(piece))
    return out


def cmd_compare(args) -> int:
    config = _load_cli_config(args)
    seed = _resolve_seed(args, config)
    schedulers = _split_list(args.scheduler, str) if args.scheduler else list(SCHEDULER_NAMES)
    try:
        lambdas = _split_list(args.arrival_rate, float) if args.arrival_rate else [1.0, 2.0]
    except ValueError:
        raise ConfigError("--lambda expects numbers") from None
    replicates = _parse_seed_range(args.seeds)

    report = run_comparison(config, schedulers, lambdas, replicates, seed)

    out_dir = _ensure_out_dir(args.out)
    suffix = "csv" if args.format == "csv" else "jsonl"
    table_path = os.path.join(out_dir, f"comparison.{suffix}")
    write_comparison(report, table_path, args.format)
    text = comparison_table(report)
    text_path = os.path.join(out_dir, "comparison.txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {table_path} and {text_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrel",
        description="Edge-cloud task scheduling simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, scheduler_list: bool) -> None:
        p.add_argument("--config", metavar="PATH", help="YAML config file")
        p.add_argument("--seed", type=int, metavar="INT",
                       help="base seed (falls back to PETREL_SEED, then the config)")
        p.add_argument("--tasks", type=int, metavar="INT", help="tasks per trace")
        if scheduler_list:
            p.add_argument("--lambda", dest="arrival_rate", action="append", metavar="REAL",
                           help="arrival rate per time unit; repeat or comma-separate")
        else:
            p.add_argument("--lambda", dest="arrival_rate", type=float, metavar="REAL",
                           help="arrival rate per time unit")
        p.add_argument("--paper-defaults", action="store_true",
                       help="ignore --config and use the built-in reference setup")

    gen = sub.add_parser("generate", help="write a task trace")
    common(gen, scheduler_list=False)
    gen.add_argument("--trace", metavar="PATH", help="output trace path")
    gen.add_argument("--out", metavar="DIR", default=".",
                     help="output directory when --trace is not given")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="simulate one scheduler over one trace")
    common(run, scheduler_list=False)
    run.add_argument("--trace", metavar="PATH",
                     help="input trace; generated from the config when omitted")
    run.add_argument("--scheduler", required=True, choices=SCHEDULER_NAMES, metavar="NAME",
                     help="one of: " + ", ".join(SCHEDULER_NAMES))
    run.add_argument("--out", metavar="DIR", default=".", help="output directory")
    run.add_argument("--format", choices=("csv", "json-lines"), default="csv",
                     help="summary format")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="sweep schedulers x lambdas x seeds")
    common(comp, scheduler_list=True)
    comp.add_argument("--scheduler", action="append", metavar="NAME",
                      help="scheduler token; repeat or comma-separate (default: all)")
    comp.add_argument("--seeds", metavar="A..B", default="1..10",
                      help="replicate range, inclusive")
    comp.add_argument("--out", metavar="DIR", default=".", help="output directory")
    comp.add_argument("--format", choices=("csv", "json-lines"), default="csv",
                      help="table format")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
