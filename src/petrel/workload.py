"""Benchmark catalog, Poisson arrival generation, and trace files.

A trace is a list of tasks sorted by arrival time.  Arrivals follow a
Poisson process over the whole edge-cloud; each task picks a benchmark
from the catalog by weight and a daemon cloudlet uniformly at random.
Traces serialize to a plain CSV with a fixed column order so runs are
diffable and reproducible byte for byte.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite, nextafter
from typing import Sequence

import numpy as np

from .model import Task, TaskClass
from .seeding import derive_seed, new_rng


class TraceFormatError(ValueError):
    """Raised when a trace file does not parse or violates trace invariants."""


@dataclass(frozen=True)
class Benchmark:
    """One application profile tasks are drawn from."""

    name: str
    task_class: TaskClass
    base_service_ms: float
    mobile_ms: float
    cloud_ms: float
    data_bytes: float
    bound_factor: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("base_service_ms", "mobile_ms", "cloud_ms", "data_bytes", "bound_factor",
                     "weight"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"benchmark {self.name}: {name} must be finite")
        if self.base_service_ms <= 0 or self.mobile_ms <= 0 or self.cloud_ms <= 0:
            raise ValueError(f"benchmark {self.name}: execution times must be > 0")
        if self.data_bytes < 0:
            raise ValueError(f"benchmark {self.name}: data_bytes must be >= 0")
        if self.weight <= 0:
            raise ValueError(f"benchmark {self.name}: weight must be > 0")
        if self.task_class is TaskClass.LATENCY_TOLERANT:
            if self.bound_factor is None or self.bound_factor <= 1:
                raise ValueError(f"benchmark {self.name}: tolerant benchmarks need bound_factor > 1")
        elif self.bound_factor is not None:
            raise ValueError(f"benchmark {self.name}: bound_factor is tolerant-only")

    @property
    def latency_bound_ms(self) -> float | None:
        if self.bound_factor is None:
            return None
        return self.bound_factor * self.base_service_ms


def default_catalog() -> list[Benchmark]:
    """Cognitive-assistance style mix: four interactive apps plus one
    deep-net app that tolerates delay.

    Magnitudes are synthetic, chosen so the default setup is busy
    enough that placement quality matters and a cloud-only policy lands
    near a turnaround/service ratio of 1.5.
    """
    return [
        Benchmark("face", TaskClass.LATENCY_SENSITIVE, 12800.0, 64000.0, 12800.0, 6_000_000.0),
        Benchmark("pool", TaskClass.LATENCY_SENSITIVE, 6400.0, 28800.0, 6400.0, 2_400_000.0),
        Benchmark("pingpong", TaskClass.LATENCY_SENSITIVE, 4800.0, 19200.0, 4800.0, 1_600_000.0),
        Benchmark("lego", TaskClass.LATENCY_SENSITIVE, 19200.0, 96000.0, 19200.0, 8_000_000.0),
        Benchmark("sandwich", TaskClass.LATENCY_TOLERANT, 80000.0, 480000.0, 80000.0,
                  24_000_000.0, bound_factor=4.0),
    ]


@dataclass(frozen=True)
class TraceSpec:
    """Everything a trace generation needs, fully determined by ``seed``."""

    task_count: int
    arrival_rate: float
    catalog: tuple[Benchmark, ...]
    cloudlet_count: int
    seed: int
    catalog_weights: tuple[float, ...] | None = None
    time_unit_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.task_count < 0:
            raise ValueError("task_count must be >= 0")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if self.cloudlet_count < 1:
            raise ValueError("cloudlet_count must be >= 1")
        if not self.catalog and self.task_count > 0:
            raise ValueError("catalog must not be empty")
        if self.catalog_weights is not None and len(self.catalog_weights) != len(self.catalog):
            raise ValueError("catalog_weights must match catalog length")

    def normalized_weights(self) -> np.ndarray:
        weights = self.catalog_weights
        if weights is None:
            weights = [b.weight for b in self.catalog]
        arr = np.asarray(weights, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("catalog weights must be > 0")
        total = arr.sum()
        if not isfinite(total):
            raise ValueError("catalog weights must have a finite sum")
        return arr / total


def generate_arrivals(arrival_rate: float, count: int, seed: int,
                      time_unit_ms: float = 1000.0) -> list[float]:
    """Strictly increasing Poisson arrival timestamps.

    Interarrival gaps are i.i.d. exponential with mean
    ``time_unit_ms / arrival_rate``.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be > 0")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(time_unit_ms / arrival_rate, size=count)
    arrivals: list[float] = []
    t = 0.0
    for gap in gaps:
        t = t + float(gap)
        # exponential draws can underflow to 0; keep arrivals strictly increasing
        if arrivals and t <= arrivals[-1]:
            t = nextafter(arrivals[-1], float("inf"))
        arrivals.append(t)
    return arrivals


def generate_trace(spec: TraceSpec) -> list[Task]:
    """Draw a full task trace from ``spec``, reproducible from its seed."""
    arrivals = generate_arrivals(
        spec.arrival_rate, spec.task_count, derive_seed(spec.seed, "arrivals"), spec.time_unit_ms
    )
    rng = new_rng(spec.seed, "mix")
    cdf: list[float] = []
    if spec.task_count:
        # the cdf ``rng.choice(k, p=weights)`` builds on every call, built once;
        # bisecting one uniform draw into it picks the same benchmark
        c = spec.normalized_weights().cumsum()
        c /= c[-1]
        cdf = c.tolist()
    tasks: list[Task] = []
    for i, arrival in enumerate(arrivals):
        bench = spec.catalog[bisect_right(cdf, rng.random())]
        daemon = int(rng.integers(0, spec.cloudlet_count))
        tasks.append(
            Task(
                id=i,
                arrival_time=arrival,
                daemon_id=daemon,
                task_class=bench.task_class,
                base_service_time=bench.base_service_ms,
                mobile_exec_time=bench.mobile_ms,
                cloud_exec_time=bench.cloud_ms,
                data_volume=bench.data_bytes,
                latency_bound=bench.latency_bound_ms,
                benchmark=bench.name,
            )
        )
    return tasks


TRACE_COLUMNS = (
    "task_id",
    "arrival_ms",
    "daemon_id",
    "benchmark",
    "class",
    "base_service_ms",
    "mobile_ms",
    "cloud_ms",
    "data_bytes",
    "bound_ms",
)


def format_number(x: float) -> str:
    """Integral floats print as ints; everything else as the shortest
    round-trip repr.  Keeps files readable without losing precision."""
    f = float(x)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def save_trace(trace: Sequence[Task], path) -> None:
    """Write a trace CSV in the fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for t in trace:
            writer.writerow(
                [
                    t.id,
                    format_number(t.arrival_time),
                    t.daemon_id,
                    t.benchmark,
                    t.task_class.token,
                    format_number(t.base_service_time),
                    format_number(t.mobile_exec_time),
                    format_number(t.cloud_exec_time),
                    format_number(t.data_volume),
                    "" if t.latency_bound is None else format_number(t.latency_bound),
                ]
            )


def _parse_field(row_num: int, name: str, raw: str, kind=float):
    try:
        value = kind(raw)
    except ValueError:
        raise TraceFormatError(f"line {row_num}: field {name!r} is not a valid {kind.__name__}: {raw!r}") from None
    if kind is float and not isfinite(value):
        raise TraceFormatError(f"line {row_num}: field {name!r} must be finite, got {raw!r}")
    return value


def load_trace(path) -> list[Task]:
    """Read a trace CSV back; validates ordering, ids, and field ranges.

    Errors carry the offending line number and field name.
    """
    tasks: list[Task] = []
    seen_ids: set[int] = set()
    last_arrival = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError("line 1: empty trace file (missing header)")
        if tuple(header) != TRACE_COLUMNS:
            raise TraceFormatError(f"line 1: bad header {header!r}, expected {list(TRACE_COLUMNS)}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise TraceFormatError(
                    f"line {row_num}: expected {len(TRACE_COLUMNS)} fields, got {len(row)}"
                )
            task_id = _parse_field(row_num, "task_id", row[0], int)
            if task_id in seen_ids:
                raise TraceFormatError(f"line {row_num}: duplicate task_id {task_id}")
            seen_ids.add(task_id)
            arrival = _parse_field(row_num, "arrival_ms", row[1])
            if last_arrival is not None and arrival < last_arrival:
                raise TraceFormatError(f"line {row_num}: field 'arrival_ms' goes backwards ({arrival} < {last_arrival})")
            last_arrival = arrival
            daemon_id = _parse_field(row_num, "daemon_id", row[2], int)
            task_class = TaskClass.from_token(row[4]) if row[4] in ("sensitive", "tolerant") else None
            if task_class is None:
                raise TraceFormatError(f"line {row_num}: field 'class' must be 'sensitive' or 'tolerant', got {row[4]!r}")
            values = {}
            for name, raw in zip(("base_service_ms", "mobile_ms", "cloud_ms"), row[5:8]):
                v = _parse_field(row_num, name, raw)
                if v <= 0:
                    raise TraceFormatError(f"line {row_num}: field {name!r} must be > 0, got {raw}")
                values[name] = v
            data_bytes = _parse_field(row_num, "data_bytes", row[8])
            if data_bytes < 0:
                raise TraceFormatError(f"line {row_num}: field 'data_bytes' must be >= 0, got {row[8]}")
            bound = None
            if row[9] != "":
                bound = _parse_field(row_num, "bound_ms", row[9])
            try:
                task = Task(
                    id=task_id,
                    arrival_time=arrival,
                    daemon_id=daemon_id,
                    task_class=task_class,
                    base_service_time=values["base_service_ms"],
                    mobile_exec_time=values["mobile_ms"],
                    cloud_exec_time=values["cloud_ms"],
                    data_volume=data_bytes,
                    latency_bound=bound,
                    benchmark=row[3],
                )
            except ValueError as exc:
                raise TraceFormatError(f"line {row_num}: {exc}") from None
            tasks.append(task)
    return tasks
