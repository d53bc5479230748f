"""Experiment configuration: defaults, YAML round-trip, topology build.

An empty config file is a valid config: every key has a default, and
the defaults describe the reference setup (10 cloudlets, 1 to 10 VMs
each, 200 tasks, selectable arrival rate).  Unknown or ill-typed keys
fail loudly with their full key path.

Topology randomness is isolated: ``build_topology`` derives one stream
from the given seed and draws, in a fixed order, VM counts, then speed
factors, then the remote RTT for every ordered cloudlet pair.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from math import isfinite
from typing import Any, Mapping

import yaml

from .model import Cloudlet, EdgeCloud, NetworkParams
from .seeding import new_rng
from .workload import Benchmark, TaskClass, default_catalog


class ConfigError(ValueError):
    """A config file is malformed; the message names the offending key."""

    @classmethod
    def at(cls, name: str, message: str) -> "ConfigError":
        """The error for config field ``name``, under its key path in the file."""
        return cls(f"{_PATHS[name]}: {message}")


DEFAULT_SEED = 1234


@dataclass(frozen=True)
class EdgeCloudConfig:
    """Full description of an experiment, minus the trace itself."""

    cloudlet_count: int = 10
    vm_count_range: tuple[int, int] = (1, 10)
    vm_counts: tuple[int, ...] | None = None
    speed_factor_range: tuple[float, float] = (1.0, 1.0)
    speed_factors: tuple[float, ...] | None = None

    daemon_rtt_ms: float = 10.0
    remote_rtt_range_ms: tuple[float, float] = (50.0, 70.0)
    cloud_rtt_ms: float = 250.0
    cloudlet_bandwidth_bytes_per_ms: float = 12500.0
    cloud_bandwidth_bytes_per_ms: float = 800.0

    task_count: int = 200
    arrival_rate: float = 1.0
    time_unit_ms: float = 1000.0

    delay_quantum_ms: float | None = None
    max_delays: int = 1000
    probe_latency_ms: float = 1500.0

    seed: int = DEFAULT_SEED
    catalog: tuple[Benchmark, ...] = field(default_factory=lambda: tuple(default_catalog()))

    def __post_init__(self) -> None:
        for _, name, shape, kind in _LAYOUT:
            value = getattr(self, name)
            if kind is float and value is not None:
                _check(all(map(isfinite, (value,) if shape == "value" else value)), name,
                       "must be finite")
        _check(self.cloudlet_count >= 1, "cloudlet_count", "must be >= 1")
        lo, hi = self.vm_count_range
        _check(1 <= lo <= hi, "vm_count_range", "needs 1 <= low <= high")
        if self.vm_counts is not None:
            _check(len(self.vm_counts) == self.cloudlet_count, "vm_counts",
                   f"needs exactly {self.cloudlet_count} entries")
            _check(all(v >= 1 for v in self.vm_counts), "vm_counts", "every entry must be >= 1")
        slo, shi = self.speed_factor_range
        _check(0 < slo <= shi, "speed_factor_range", "needs 0 < low <= high")
        if self.speed_factors is not None:
            _check(len(self.speed_factors) == self.cloudlet_count, "speed_factors",
                   f"needs exactly {self.cloudlet_count} entries")
            _check(all(s > 0 for s in self.speed_factors), "speed_factors",
                   "every entry must be > 0")
        _check(self.daemon_rtt_ms >= 0, "daemon_rtt_ms", "must be >= 0")
        rlo, rhi = self.remote_rtt_range_ms
        _check(0 <= rlo <= rhi, "remote_rtt_range_ms", "needs 0 <= low <= high")
        _check(self.cloud_rtt_ms >= 0, "cloud_rtt_ms", "must be >= 0")
        _check(self.cloudlet_bandwidth_bytes_per_ms > 0, "cloudlet_bandwidth_bytes_per_ms",
               "must be > 0")
        _check(self.cloud_bandwidth_bytes_per_ms > 0, "cloud_bandwidth_bytes_per_ms",
               "must be > 0")
        _check(self.task_count >= 0, "task_count", "must be >= 0")
        _check(self.arrival_rate > 0, "arrival_rate", "must be > 0")
        _check(self.time_unit_ms > 0, "time_unit_ms", "must be > 0")
        _check(isfinite(self.time_unit_ms / self.arrival_rate), "arrival_rate",
               "the mean arrival gap time_unit_ms / arrival_rate must be finite")
        if self.delay_quantum_ms is not None:
            _check(self.delay_quantum_ms > 0, "delay_quantum_ms", "must be > 0")
        _check(self.max_delays >= 1, "max_delays", "must be >= 1")
        _check(self.probe_latency_ms >= 0, "probe_latency_ms", "must be >= 0")
        _check(len(self.catalog) >= 1, "catalog", "must have at least one benchmark")
        names = [b.name for b in self.catalog]
        _check(len(set(names)) == len(names), "catalog", "benchmark names must be unique")

    def resolve_delay_quantum(self) -> float:
        """Delay step for the adaptive policy.

        Defaults to a small slice (1/40) of the mean delay-tolerant
        service time, so a deferred task re-bids many times before its
        bound comes close; falls back to all benchmarks when none
        tolerate delay.
        """
        if self.delay_quantum_ms is not None:
            return self.delay_quantum_ms
        tolerant = [b.base_service_ms for b in self.catalog
                    if b.task_class is TaskClass.LATENCY_TOLERANT]
        pool = tolerant or [b.base_service_ms for b in self.catalog]
        return sum(pool) / len(pool) / 40.0

    def override(self, **changes) -> "EdgeCloudConfig":
        return replace(self, **changes)


def _check(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ConfigError.at(name, message)


def build_topology(config: EdgeCloudConfig, seed: int) -> EdgeCloud:
    """Materialize the cloudlets a config describes.

    Draw order is fixed (VM counts, speed factors, then the RTT for
    each ordered pair in row-major order) so a seed always yields the
    same edge-cloud no matter which fields were given explicitly.
    """
    rng = new_rng(seed, "topology")
    n = config.cloudlet_count

    lo, hi = config.vm_count_range
    drawn_vms = rng.integers(lo, hi + 1, size=n)
    vm_counts = config.vm_counts if config.vm_counts is not None else tuple(int(v) for v in drawn_vms)

    slo, shi = config.speed_factor_range
    drawn_speeds = rng.uniform(slo, shi, size=n)
    speeds = config.speed_factors if config.speed_factors is not None else tuple(float(s) for s in drawn_speeds)

    rlo, rhi = config.remote_rtt_range_ms
    remote: list[dict[int, float]] = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rtt = float(rng.uniform(rlo, rhi))
            remote[i][j] = rtt

    cloudlets = tuple(
        Cloudlet(
            id=i,
            vm_count=vm_counts[i],
            speed_factor=speeds[i],
            net=NetworkParams(
                daemon_rtt=config.daemon_rtt_ms,
                cloudlet_bandwidth=config.cloudlet_bandwidth_bytes_per_ms,
                cloud_rtt=config.cloud_rtt_ms,
                cloud_bandwidth=config.cloud_bandwidth_bytes_per_ms,
                remote_rtt=remote[i],
            ),
        )
        for i in range(n)
    )
    return EdgeCloud(cloudlets)


# The file layout, in file order: (key path, field, shape, kind).  A path
# without a dot is a top-level key.  Shape "pair" is a [low, high] list and
# shape "list" a list that is left out of the file when the field is None.
_LAYOUT = (
    ("seed", "seed", "value", int),
    ("cloudlets.count", "cloudlet_count", "value", int),
    ("cloudlets.vm_count_range", "vm_count_range", "pair", int),
    ("cloudlets.speed_factor_range", "speed_factor_range", "pair", float),
    ("cloudlets.vm_counts", "vm_counts", "list", int),
    ("cloudlets.speed_factors", "speed_factors", "list", float),
    ("network.daemon_rtt_ms", "daemon_rtt_ms", "value", float),
    ("network.remote_rtt_range_ms", "remote_rtt_range_ms", "pair", float),
    ("network.cloud_rtt_ms", "cloud_rtt_ms", "value", float),
    ("network.cloudlet_bandwidth_bytes_per_ms", "cloudlet_bandwidth_bytes_per_ms", "value", float),
    ("network.cloud_bandwidth_bytes_per_ms", "cloud_bandwidth_bytes_per_ms", "value", float),
    ("trace.task_count", "task_count", "value", int),
    ("trace.arrival_rate", "arrival_rate", "value", float),
    ("trace.time_unit_ms", "time_unit_ms", "value", float),
    ("scheduler.delay_quantum_ms", "delay_quantum_ms", "value", float),
    ("scheduler.max_delays", "max_delays", "value", int),
    ("scheduler.probe_latency_ms", "probe_latency_ms", "value", float),
    ("catalog", "catalog", "list", Benchmark),
)
# A catalog entry's layout, in file order: (key, Benchmark field, kind).  An
# entry may leave out the keys whose field has a default; a None is left out.
_ENTRY_LAYOUT = (
    ("name", "name", str),
    ("class", "task_class", TaskClass),
    ("base_service_ms", "base_service_ms", float),
    ("mobile_ms", "mobile_ms", float),
    ("cloud_ms", "cloud_ms", float),
    ("data_bytes", "data_bytes", float),
    ("weight", "weight", float),
    ("bound_factor", "bound_factor", float),
)
_PATHS = {name: path for path, name, _, _ in _LAYOUT}
_SECTIONS = tuple(dict.fromkeys(path.partition(".")[0] for path in _PATHS.values() if "." in path))
# every (section, key) a file may hold; section "" is the top level
_KNOWN = {("", s) for s in _SECTIONS} | {path.rpartition(".")[::2] for path in _PATHS.values()}
_ENTRY_KEYS = {key for key, _, _ in _ENTRY_LAYOUT}
_REQUIRED = {f.name for f in fields(Benchmark) if f.init and f.default is MISSING}
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Benchmark):
        return {key: _plain(getattr(value, name)) for key, name, _ in _ENTRY_LAYOUT
                if getattr(value, name) is not None}
    return value.token if isinstance(value, TaskClass) else value


def to_mapping(config: EdgeCloudConfig) -> dict[str, Any]:
    """Nested plain-data form of a config, ready for YAML."""
    out: dict[str, Any] = {}
    for path, name, shape, _ in _LAYOUT:
        value = getattr(config, name)
        if value is not None or shape != "list":
            section, _, key = path.rpartition(".")
            (out.setdefault(section, {}) if section else out)[key] = _plain(value)
    return out


def _scalar(raw, kind):
    """``raw`` as a ``kind``: a str only from a str, no bool as a number, no fractional int."""
    if (kind is str and not isinstance(raw, str)
            or isinstance(raw, bool) and kind in (int, float)
            or kind is int and isinstance(raw, float) and not raw.is_integer()):
        raise TypeError(f"expected {kind.__name__}, got {raw!r}")
    return TaskClass.from_token(str(raw)) if kind is TaskClass else kind(raw)


def _mapping(data, path: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _benchmark(data, path: str) -> Benchmark:
    for key in _mapping(data, path):
        if key not in _ENTRY_KEYS:
            raise ConfigError(f"{path}.{key}: unknown key")
    values = {}
    for key, name, kind in _ENTRY_LAYOUT:
        if key in data:
            values[name] = _read(data[key], f"{path}.{key}", "value", kind)
        elif name in _REQUIRED:
            raise ConfigError(f"{path}: missing key {key!r}")
    try:
        return Benchmark(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _read(raw, path: str, shape: str, kind):
    """One key's value of the given shape; every entry follows the scalar rule."""
    if shape == "value":
        try:
            return _scalar(raw, kind)
        except _BAD_VALUE as exc:
            # a class token's own message names the tokens it takes
            wanted = exc if kind is TaskClass else f"expected {kind.__name__}, got {raw!r}"
            raise ConfigError(f"{path}: {wanted}") from None
    if kind is Benchmark:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{path}: expected a list of benchmarks")
        return tuple(_benchmark(entry, f"{path}[{i}]") for i, entry in enumerate(raw))
    if not isinstance(raw, (list, tuple)) or (shape == "pair" and len(raw) != 2):
        wanted = "a [low, high] pair" if shape == "pair" else "a list"
        raise ConfigError(f"{path}: expected {wanted}")
    try:
        return tuple(_scalar(v, kind) for v in raw)
    except _BAD_VALUE:
        raise ConfigError(f"{path}: expected {kind.__name__} entries") from None


def from_mapping(data: Mapping[str, Any] | None) -> EdgeCloudConfig:
    """Build a config from nested plain data; missing keys take defaults."""
    root = _mapping({} if data is None else data, "<root>")
    sections = {"": root} | {s: _mapping(root.get(s, {}), s) for s in _SECTIONS}
    values = {}
    for path, name, shape, kind in _LAYOUT:
        section, _, key = path.rpartition(".")
        raw = sections[section].get(key)
        if raw is not None:
            values[name] = _read(raw, path, shape, kind)
    config = EdgeCloudConfig(**values)
    for section, mapping in sections.items():
        for key in mapping:
            if (section, key) not in _KNOWN:
                raise ConfigError(f"{f'{section}.' if section else ''}{key}: unknown key")
    return config


def load_config(path) -> EdgeCloudConfig:
    """Parse a YAML config file; an empty file yields the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return from_mapping(data)


def save_config(config: EdgeCloudConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_mapping(config), fh, sort_keys=False)
