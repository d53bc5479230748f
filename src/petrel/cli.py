"""Command-line front end: trace generation, single runs, and sweeps.

Exit codes are a stable contract: 0 on success, 1 when a run fails at
runtime, 2 for usage or config mistakes.  A command's settings come only
from its flags and its config file, a flag winning.  All randomness flows
from one base seed (``--seed``, else the config's ``seed``); sweep
cells derive their own sub-seeds from it, so a sweep is reproducible
regardless of which cells run or in what order.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from math import fsum, isfinite, isqrt, nan

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

COMPARE_COLUMNS = ("scheduler", "lambda", "replicates", "seeds",
                   *(f"{metric}_{stat}" for metric in COMPARE_METRICS for stat in ("mean", "std")))

# each --format and the suffix of the table files it writes
_SUFFIXES = {"csv": "csv", "json-lines": "jsonl"}


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
        for (task_id, task_class, daemon_id, executor, _arrival, assign_time, start_time,
             completion, turnaround, service, speedup, delays, violated) in records:
            assign = fmt(assign_time)
            # turnaround / service is weighted_turnaround; _value_ skips Enum.value's property
            if start_time == assign_time:
                start = assign
                cells = memo[turnaround], memo[turnaround / service], memo[speedup]
            else:
                start = fmt(start_time)
                cells = fmt(turnaround), fmt(turnaround / service), fmt(speedup)
            turnaround_cell, weighted_cell, speedup_cell = cells
            fh.write(
                f"{task_id},{task_class._value_},{daemon_id},"
                f"{'cloud' if executor is None else executor},"
                f"{assign},{start},{fmt(completion)},{turnaround_cell},"
                f"{memo[service]},{weighted_cell},{speedup_cell},{delays},"
                f"{'' if violated is None else 'true' if violated else 'false'}\n"
            )


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_csv_cell, value))
    return format_number(value) if isinstance(value, float) else str(value)


def _json_value(value):
    """``value`` with each non-finite float spelled as its CSV cell, a string, which JSON allows."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return list(map(_json_value, value))
    return format_number(value) if isinstance(value, float) and not isfinite(value) else value


def write_table(path, fmt: str, columns, rows) -> None:
    """Write ``rows``, each mapping a field to a scalar, a list or a mapping, as CSV or JSON lines.

    The CSV header is ``columns``: a mapping spreads into ``<field>_<key>`` columns, a list
    joins with commas, a float is spelled by ``format_number``, and a field no column names
    is left out.  JSON lines holds every field and spells a non-finite float as CSV does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt != "csv":
            import json  # only JSON lines need it, so a CSV command never loads it

            fh.writelines(json.dumps(_json_value(row), sort_keys=True, allow_nan=False) + "\n"
                          for row in rows)
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = {}
            for name, value in row.items():
                if isinstance(value, dict):
                    cells.update((f"{name}_{key}", _csv_cell(v)) for key, v in value.items())
                else:
                    cells[name] = _csv_cell(value)
            writer.writerow([cells[column] for column in columns])


def write_summary(summary: RunSummary, path, fmt: str, *, extra: dict | None = None) -> None:
    row = {**(extra or {}), **{name: getattr(summary, name) for name in SUMMARY_FIELDS}}
    columns = list(row)  # only JSON lines has the per-cloudlet makespans
    row["per_cloudlet_makespan"] = {str(k): v for k, v in summary.per_cloudlet_makespan.items()}
    write_table(path, fmt, columns, [row])


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation, each correctly rounded, so that every
    Python gives the same bits; the deviation is what ``statistics.stdev`` gives
    from 3.11 on; with an infinite or nan value, the deviation is nan."""
    n = len(values)
    if n < 2:
        return fsum(values) / n, 0.0
    if not all(map(isfinite, values)):
        # what fsum gives with an inf or nan among the values, even where the finite ones overflow
        return fsum(v for v in values if not isfinite(v)) / n, nan
    # as integer multiples of their least power-of-two step, the values have the
    # exact sample variance p / q; its root is taken to at least 55 bits and
    # rounded to odd (a sticky last bit), so rounding that once to a float is correct
    ratios = [v.as_integer_ratio() for v in values]
    step = max(d for _, d in ratios)
    units = [m * (step // d) for m, d in ratios]
    total = sum(units)
    p, q = n * sum(u * u for u in units) - total ** 2, n * (n - 1) * step * step
    shift = (p.bit_length() - q.bit_length() - 109) // 2
    p, q = (p, q << 2 * shift) if shift >= 0 else (p << -2 * shift, q)
    root = isqrt(p // q)
    root |= root * root * q != p
    try:
        mean = fsum(values) / n
    except OverflowError:  # the sum overflows, but the mean of finite values cannot
        mean = total / (n * step)  # int division rounds correctly
    return mean, float(root << shift) if shift >= 0 else root / (1 << -shift)


def run_comparison(config: EdgeCloudConfig, schedulers, lambdas, replicates,
                   base_seed: int) -> list[dict]:
    """Run the full scheduler × λ × replicate sweep; return its table's rows, one per
    (scheduler, λ), each of ``COMPARE_METRICS`` as ``{"mean": ..., "std": ...}``.

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
    # a repeated value would pool its runs into one row; 1 and 1.0 are one λ
    for kind, values in (("scheduler", schedulers), ("lambda", list(map(format_number, lambdas))),
                         ("replicate", replicates)):
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ConfigError(f"compare lists {kind} {repeated[0]} more than once")
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
                grouped.setdefault((name, lam), []).append(summary)
    return [
        {"scheduler": name, "lambda": lam, "replicates": len(summaries), "seeds": list(replicates),
         **{metric: dict(zip(("mean", "std"), _mean_std([getattr(s, metric) for s in summaries])))
            for metric in COMPARE_METRICS}}
        for (name, lam), summaries in grouped.items()
    ]


def write_comparison(rows, path, fmt: str) -> None:
    write_table(path, fmt, COMPARE_COLUMNS, rows)


def comparison_table(rows) -> str:
    """Human-readable aligned table, one line per (scheduler, λ)."""
    header = ["scheduler", "lambda"] + list(COMPARE_METRICS)
    lines = [header]
    for row in rows:
        cells = [row["scheduler"], format_number(row["lambda"])]
        for metric in COMPARE_METRICS:
            cells.append(f"{row[metric]['mean']:.4f} ± {row[metric]['std']:.4f}")
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    rendered = []
    for line in lines:
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(rendered) + "\n"


def _load_cli_config(args) -> EdgeCloudConfig:
    """The config file, or the defaults, with each given flag in place of its key."""
    config = EdgeCloudConfig() if args.config is None else load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tasks is not None:
        overrides["task_count"] = args.tasks
    # compare takes a list of rates, swept by run_comparison
    if args.arrival_rate is not None and not isinstance(args.arrival_rate, list):
        overrides["arrival_rate"] = args.arrival_rate
    return config.override(**overrides)


def cmd_generate(args) -> int:
    config = _load_cli_config(args)
    trace = generate_trace(config, config.seed)
    parent = os.path.dirname(args.trace)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_trace(trace, args.trace)
    print(f"wrote {len(trace)} tasks to {args.trace} (seed {config.seed})")
    return 0


def cmd_run(args) -> int:
    if args.trace is not None and (args.tasks is not None or args.arrival_rate is not None):
        # the trace file fixes its tasks and their arrivals
        raise ConfigError("run --trace takes no --tasks or --lambda")
    config = _load_cli_config(args)
    _check_policy_fits(config, args.scheduler)
    seed = config.seed
    if args.trace is not None:
        trace = load_trace(args.trace)
        if not trace:
            raise TraceFormatError(f"{args.trace}: the trace has no tasks")
    else:
        _check_has_tasks(config, "run")
        trace = generate_trace(config, derive_seed(seed, "trace"))
    result = simulate(config, trace, args.scheduler, seed)
    summary = summarize(result.records, result.topology)

    os.makedirs(args.out, exist_ok=True)
    records_path = os.path.join(args.out, "records.csv")
    write_records_csv(result.records, records_path)
    summary_path = os.path.join(args.out, f"summary.{_SUFFIXES[args.format]}")
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
    schedulers = _split_list(args.scheduler, str) if args.scheduler else list(SCHEDULER_NAMES)
    try:
        lambdas = _split_list(args.arrival_rate, float) if args.arrival_rate else [1.0, 2.0]
    except ValueError:
        raise ConfigError("--lambda expects numbers") from None
    replicates = _parse_seed_range(args.seeds)

    rows = run_comparison(config, schedulers, lambdas, replicates, config.seed)

    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, f"comparison.{_SUFFIXES[args.format]}")
    write_comparison(rows, table_path, args.format)
    text = comparison_table(rows)
    text_path = os.path.join(args.out, "comparison.txt")
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
                       help="base seed (default: the config's seed)")
        p.add_argument("--tasks", type=int, metavar="INT", help="tasks per trace")
        if scheduler_list:
            p.add_argument("--lambda", dest="arrival_rate", action="append", metavar="REAL",
                           help="arrival rate in tasks per second; repeat or comma-separate")
        else:
            p.add_argument("--lambda", dest="arrival_rate", type=float, metavar="REAL",
                           help="arrival rate in tasks per second")

    gen = sub.add_parser("generate", help="write a task trace")
    common(gen, scheduler_list=False)
    gen.add_argument("--trace", metavar="PATH", default="./trace.csv",
                     help="output trace path (default: %(default)s)")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="simulate one scheduler over one trace")
    common(run, scheduler_list=False)
    run.add_argument("--trace", metavar="PATH",
                     help="input trace; generated from the config when omitted")
    run.add_argument("--scheduler", required=True, choices=SCHEDULER_NAMES, metavar="NAME",
                     help="one of: " + ", ".join(SCHEDULER_NAMES))
    run.add_argument("--out", metavar="DIR", default=".", help="output directory")
    run.add_argument("--format", choices=tuple(_SUFFIXES), default="csv",
                     help="summary format")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="sweep schedulers x lambdas x seeds")
    common(comp, scheduler_list=True)
    comp.add_argument("--scheduler", action="append", metavar="NAME",
                      help="scheduler token; repeat or comma-separate (default: all)")
    comp.add_argument("--seeds", metavar="A..B", default="1..10",
                      help="replicate range, inclusive")
    comp.add_argument("--out", metavar="DIR", default=".", help="output directory")
    comp.add_argument("--format", choices=tuple(_SUFFIXES), default="csv",
                      help="table format")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command leaves no reference cycles behind, so collecting frees nothing
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
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
