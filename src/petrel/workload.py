"""Benchmark catalog, Poisson arrival generation, and trace files.

A trace is a list of tasks sorted by arrival time.  Arrivals follow a
Poisson process over the whole edge-cloud; each task picks a benchmark
from the catalog by weight and a daemon cloudlet uniformly at random.
Traces serialize to a plain CSV with a fixed column order so runs are
diffable and reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from math import inf, isfinite, nextafter
from operator import le
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import (_PROFILE_COLUMNS, Profile, Task, TaskClass, check_range, in_range,
                    plain_number, shown)
from .seeding import derive_seed, new_rng

if TYPE_CHECKING:  # config imports this module for Benchmark
    from .config import EdgeCloudConfig


# the arrival rate is in tasks per second, and every time in ms
MS_PER_SECOND = 1000.0


class TraceFormatError(ValueError):
    """Raised when a trace file does not parse or violates trace invariants."""


def _entry(kind, key: str | None = None, **default):
    """A catalog entry's field of type ``kind``, under file key ``key``, else its name."""
    return field(**default, metadata={"key": key, "kind": kind})


@dataclass(frozen=True)
class Benchmark:
    """One application profile tasks are drawn from, and the :class:`Profile` its tasks share.

    Each field declares its entry key and kind once (see ``_entry``), in file order.
    The name is a str, and each number is stored as a plain float by
    :func:`~petrel.model.plain_number`'s rule.  The profile checks the class, the
    times, the size and the bound; the entry's ranges are only those of the
    keyword-only keys a profile lacks, ``weight`` and ``bound_factor``.
    """

    name: str = _entry(str)
    task_class: TaskClass = _entry(TaskClass, "class")
    base_service_ms: float = _entry(float)
    mobile_ms: float = _entry(float)
    cloud_ms: float = _entry(float)
    data_bytes: float = _entry(float)
    weight: float = _entry(float, default=1.0, kw_only=True)
    bound_factor: float | None = _entry(float, default=None, kw_only=True)
    profile: Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key, name, kind in _ENTRY_LAYOUT:
            value = getattr(self, name)
            if kind is TaskClass or value is None and key == "bound_factor":
                continue  # the profile checks the class
            stored = plain_number(value) if kind is float else value
            if not isinstance(stored, kind):
                where = "benchmark" if key == "name" else f"benchmark {self.name}:"
                raise ValueError(f"{where} {key}: expected {kind.__name__}, got {shown(value)}")
            object.__setattr__(self, name, stored)
        if self.bound_factor is not None:
            check_range(self.bound_factor, f"benchmark {self.name}: bound_factor")
        check_range(self.weight, f"benchmark {self.name}: weight", "> 0")
        bound = None
        if self.task_class is TaskClass.LATENCY_TOLERANT:
            if self.bound_factor is None or self.bound_factor <= 1:
                raise ValueError(f"benchmark {self.name}: tolerant benchmarks need bound_factor > 1")
            bound = self.bound_factor * self.base_service_ms
            # the profile would blame its bound_ms column, which no catalog entry has
            if not isfinite(bound) and isfinite(self.base_service_ms):
                raise ValueError(f"benchmark {self.name}: bound_factor * base_service_ms"
                                 " must be finite")
        elif self.bound_factor is not None and self.task_class is TaskClass.LATENCY_SENSITIVE:
            raise ValueError(f"benchmark {self.name}: bound_factor is tolerant-only")
        try:
            profile = Profile(self.name, self.task_class, self.base_service_ms, self.mobile_ms,
                              self.cloud_ms, self.data_bytes, bound)
        except ValueError as exc:
            raise ValueError(f"benchmark {self.name}: {exc}") from None
        object.__setattr__(self, "profile", profile)


# a catalog entry's layout, in file order: (key, field, kind), as each field declares it;
# an entry may leave out a key whose field has a default, and a None is left out
_ENTRY_LAYOUT = tuple((f.metadata["key"] or f.name, f.name, f.metadata["kind"])
                      for f in fields(Benchmark) if f.init)


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


def generate_arrivals(arrival_rate: float, count: int, seed: int) -> list[float]:
    """Strictly increasing Poisson arrival times in ms, at ``arrival_rate`` tasks per
    second: the gaps are i.i.d. exponential with mean ``MS_PER_SECOND / arrival_rate``."""
    check_range(arrival_rate, "arrival_rate", "> 0")
    check_range(count, "count", ">= 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MS_PER_SECOND / arrival_rate, size=count)
    arrivals: list[float] = []
    t = 0.0
    for gap in gaps.tolist():
        t = t + gap
        # exponential draws can underflow to 0; keep arrivals strictly increasing
        if arrivals and t <= arrivals[-1]:
            t = nextafter(arrivals[-1], float("inf"))
        arrivals.append(t)
    return arrivals


def _mix_by_loop(config: EdgeCloudConfig, seed: int,
                 cdf: list[float]) -> tuple[list[int], list[int]]:
    """Benchmark pick and daemon id of every task, one task at a time."""
    rng = new_rng(seed, "mix")
    picks: list[int] = []
    daemons: list[int] = []
    for _ in range(config.task_count):
        picks.append(bisect_right(cdf, rng.random()))
        daemons.append(int(rng.integers(0, config.cloudlet_count)))
    return picks, daemons


_LOW32 = np.uint64(0xFFFFFFFF)


def _mix(config: EdgeCloudConfig, seed: int, cdf: list[float]) -> tuple[list[int], list[int]]:
    """What :func:`_mix_by_loop` draws, from one ``random_raw`` batch.

    PCG64's ``random()`` is ``(word >> 11) * 2**-53`` of a whole word, and
    ``integers(0, k)`` is Lemire's method on a 32-bit half: the low half of
    a fresh word, then the buffered high half, so two tasks take the words
    ``[u0, halves, u1]``.  A rejected Lemire draw would take another half
    and shift the rest, so it falls back to the loop.  The config bounds k
    by ``2**30``, so a half always holds a draw.
    """
    n, k = config.task_count, config.cloudlet_count
    raw = new_rng(seed, "mix").bit_generator.random_raw
    if k == 1:  # integers(0, 1) draws nothing
        words, daemons = raw(n), [0] * n
    else:
        triples = raw(3 * ((n + 1) // 2)).reshape(-1, 3)
        words = triples[:, ::2].ravel()[:n]
        halves = triples[:, 1]
        scaled = np.column_stack((halves & _LOW32, halves >> 32)).ravel()[:n] * np.uint64(k)
        if ((scaled & _LOW32) < 2**32 % k).any():
            return _mix_by_loop(config, seed, cdf)
        daemons = (scaled >> 32).tolist()
    return np.searchsorted(cdf, (words >> 11) * 2.0**-53, side="right").tolist(), daemons


def generate_trace(config: EdgeCloudConfig, seed: int) -> list[Task]:
    """Draw the task trace ``config`` describes, reproducible from ``seed``: it
    reads the ``trace`` keys, the catalog and the cloudlet count, nothing else."""
    from .config import ConfigError  # config imports this module

    arrivals = generate_arrivals(config.arrival_rate, config.task_count,
                                 derive_seed(seed, "arrivals"))
    if not arrivals:
        return []
    if not isfinite(arrivals[-1]):  # arrivals never decrease, so the last one overflows first
        raise ConfigError.at("arrival_rate", f"the arrival times of {config.task_count} tasks"
                             " overflow the float range; raise arrival_rate")
    weights = np.asarray([b.weight for b in config.catalog], dtype=float)
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned about
        total = weights.sum()
    if not isfinite(total):
        raise ConfigError.at("catalog", "weights must have a finite sum")
    # the cdf ``rng.choice(k, p=weights)`` builds on every call, built once;
    # bisecting one uniform draw into it picks the same benchmark
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    profiles = [b.profile for b in config.catalog]
    picks, daemons = _mix(config, seed, cdf.tolist())
    # tuple.__new__ skips the two arrival checks of Task(...), which hold already:
    # the last arrival is finite and none decreases, and the first gap starts from 0
    new = tuple.__new__
    return [new(Task, (i, arrival, daemon, profiles[pick]))
            for i, (arrival, pick, daemon) in enumerate(zip(arrivals, picks, daemons))]


TRACE_COLUMNS = ("task_id", "arrival_ms", "daemon_id", "benchmark", "class",
                 *(column for _, column, _ in _PROFILE_COLUMNS))
_HEADER = ",".join(TRACE_COLUMNS)


def format_number(x: float) -> str:
    """Integral floats print as ints; everything else as the shortest
    round-trip repr.  Keeps files readable without losing precision."""
    f = float(x)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def save_trace(trace: Sequence[Task], path) -> None:
    """Write a trace CSV in the fixed column order.

    The last seven columns are the task's profile, so each profile object
    is rendered once, by ``csv.writer`` (a benchmark name is free text and
    may need quoting), and reused.  Profiles are keyed by identity, which
    costs no hashing of their values.
    """
    buf = io.StringIO(newline="")
    render = csv.writer(buf).writerow
    tails: dict[int, str] = {}
    rendered: list[Profile] = []  # holds each keyed profile, so no other object takes its id
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_HEADER + "\r\n")
        for t in trace:
            profile = t.profile
            tail = tails.get(id(profile))
            if tail is None:
                values = (getattr(profile, name) for name, _, _ in _PROFILE_COLUMNS)
                render((profile.benchmark, profile.task_class.value,
                        *("" if v is None else format_number(v) for v in values)))
                tail = tails[id(profile)] = buf.getvalue()
                rendered.append(profile)
                buf.seek(0)
                buf.truncate()
            # id, arrival and daemon are numbers: csv.writer never quotes them
            fh.write(f"{t.id},{format_number(t.arrival_time)},{t.daemon_id},{tail}")


def _parse_field(row_num: int, name: str, raw: str, kind=float, bound: str | None = None):
    try:
        value = kind(raw)
    except ValueError:
        raise TraceFormatError(f"line {row_num}: field {name!r} is not a valid {kind.__name__}: {raw!r}") from None
    if kind is float and not isfinite(value):
        raise TraceFormatError(f"line {row_num}: field {name!r} must be finite, got {raw!r}")
    if bound is not None and not in_range(value, bound):
        raise TraceFormatError(f"line {row_num}: field {name!r} must be {bound}, got {raw}")
    return value


def _raise_first_fault(row_num: int, row: list[str], seen_ids: set[int], last_arrival: float):
    """Raise the first fault of a faulty row's id, arrival and daemon, in column order."""
    task_id = _parse_field(row_num, "task_id", row[0], int)
    if task_id in seen_ids:
        raise TraceFormatError(f"line {row_num}: duplicate task_id {task_id}")
    arrival = _parse_field(row_num, "arrival_ms", row[1])
    if arrival < last_arrival:
        raise TraceFormatError(f"line {row_num}: field 'arrival_ms' goes backwards"
                               f" ({arrival} < {last_arrival})")
    _parse_field(row_num, "daemon_id", row[2], int)


def _profile_fields(row_num: int, key: Sequence[str]) -> list:
    """The ``Profile`` arguments of a profile's seven raw fields, each checked in column order."""
    name, token, *raws = key
    try:
        task_class = TaskClass.from_token(token)
    except ValueError:
        raise TraceFormatError(f"line {row_num}: field 'class' must be 'sensitive'"
                               f" or 'tolerant', got {token!r}") from None
    # the profile's own bounds; only bound_ms, which has none, may be empty
    return [name, task_class, *(None if raw == "" and bound is None
                                else _parse_field(row_num, column, raw, bound=bound)
                                for (_, column, bound), raw in zip(_PROFILE_COLUMNS, raws))]


def load_trace(path) -> list[Task]:
    """Read a trace CSV back; validates ordering, ids, and field ranges.

    The file is read once.  A file as ``save_trace`` writes one with plain
    names is parsed in one pass; every other file, and every faulty one, is
    parsed by the csv row loop.  Errors carry the offending field's name and
    the file line its row starts on (a quoted field may span lines); a file
    that is not UTF-8, or a field over csv's size limit, is named too.  Rows
    that spell a profile alike share one :class:`Profile`, and tasks skip
    ``Task``'s arrival checks, which are made here.
    """
    tasks = _load_plain(path)
    return _load_rows(path, tasks) if isinstance(tasks, str) else tasks


def _load_plain(path) -> list[Task] | str:
    """The tasks of a plain trace file, parsed in one pass, or if in doubt its text.

    A plain file holds no ``"`` for csv to strip and no NUL, which csv refuses
    before Python 3.11; it ends every line alike, starts with the exact header
    and has no line past csv's field size limit.  Its task columns are then
    converted and checked in bulk, and the text and the lines are freed before
    the tasks are built.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # decoded whole, before any row is read
        raise TraceFormatError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}"
                               f" ({exc.reason})") from None
    newline = "\r\n" if "\r" in text else "\n"
    lines = text.split(newline)
    breaks = len(lines) - 1  # a lone \r or \n would end a row in csv but not here
    if ('"' in text or "\0" in text or text.count("\n") != breaks
            or text.count("\r") not in (0, breaks) or lines[0] != _HEADER
            or max(map(len, lines)) > csv.field_size_limit()):
        return text
    del text
    try:  # a row of fewer than four fields, a value that does not convert or a failed check
        ids, arrivals, daemons, tails = zip(*[line.split(",", 3)
                                              for line in islice(lines, 1, None) if line])
        ids, arrivals = list(map(int, ids)), list(map(float, arrivals))
        daemons = list(map(int, daemons))
        # arrivals from 0 up, never decreasing, so the last is finite if any is not
        if not (arrivals[0] >= 0 and arrivals[-1] < inf and all(map(le, arrivals, arrivals[1:]))
                and len(set(ids)) == len(ids)):
            raise ValueError
        profiles = {}
        for tail in dict.fromkeys(tails):
            key = tail.split(",")
            if len(key) != len(TRACE_COLUMNS) - 3:
                raise ValueError
            profiles[tail] = Profile(*_profile_fields(0, key))  # its message is not shown
    except ValueError:
        return newline.join(lines)
    del lines
    tasks = zip(ids, arrivals, daemons, map(profiles.__getitem__, tails))
    return list(map(tuple.__new__, repeat(Task), tasks))


# where a file read with newline="" ends a line: str.splitlines would also end one at
# \x0c, \x85, \u2028 and others
_LINE_END = re.compile(r"\r\n?|\n")


def _lines(text: str, size: int = 1 << 16):
    """The lines of ``text``, each with its ending, as a file read with newline="" yields
    them.  They are read from chunks of about ``size`` characters cut at line ends, so
    only a chunk, not the whole text, is copied into a buffer at a time."""
    start = 0
    while start < len(text):
        end = _LINE_END.search(text, start + size)
        end = end.end() if end else len(text)
        yield from io.StringIO(text[start:end], newline="")
        start = end


def _load_rows(path, text: str) -> list[Task]:
    """Parse the text of the trace file ``path`` row by row through ``csv.reader``,
    keying profiles on their seven raw fields; only a faulty row is parsed again,
    to name its first fault."""
    tasks: list[Task] = []
    seen_ids: set[int] = set()
    append, add_id, new = tasks.append, seen_ids.add, tuple.__new__
    last_arrival = -inf
    profiles: dict[tuple[str, ...], Profile] = {}
    width = len(TRACE_COLUMNS)
    reader = csv.reader(_lines(text))
    try:
        header = next(reader, None)
        if header is None:
            raise TraceFormatError("line 1: empty trace file (missing header)")
        if tuple(header) != TRACE_COLUMNS:
            raise TraceFormatError(
                f"line 1: bad header {header!r}, expected {list(TRACE_COLUMNS)}")
        line = reader.line_num
        for row in reader:
            # the row starts after the last one's end; a quoted field may span lines
            row_num, line = line + 1, reader.line_num
            if not row:
                continue
            # each field is checked once, in column order, and the first fault
            # raises; the profile columns are checked only for a new spelling
            if len(row) != width:
                raise TraceFormatError(
                    f"line {row_num}: expected {width} fields, got {len(row)}")
            try:
                task_id, arrival, daemon_id = int(row[0]), float(row[1]), int(row[2])
                fault = (not isfinite(arrival) or task_id in seen_ids
                         or arrival < last_arrival)
            except ValueError:
                fault = True
            if fault:
                _raise_first_fault(row_num, row, seen_ids, last_arrival)
            key = tuple(row[3:])
            profile = profiles.get(key)
            if profile is None:
                values = _profile_fields(row_num, key)
            # after the field checks, the task's own: its arrival, then a new profile
            if arrival < 0:
                raise TraceFormatError(
                    f"line {row_num}: task {task_id}: arrival_time must be >= 0")
            if profile is None:
                try:
                    profile = profiles[key] = Profile(*values)
                except ValueError as exc:
                    raise TraceFormatError(f"line {row_num}: task {task_id}: {exc}") from None
            add_id(task_id)
            last_arrival = arrival
            append(new(Task, (task_id, arrival, daemon_id, profile)))
    except csv.Error as exc:  # such as a field over csv's size limit
        raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return tasks
