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

from dataclasses import dataclass, field, replace
from math import isfinite
from typing import Any, Mapping

import yaml

from .model import Cloudlet, EdgeCloud, NetworkParams
from .seeding import new_rng
from .workload import Benchmark, TaskClass, TraceSpec, default_catalog


class ConfigError(ValueError):
    """A config file is malformed; the message names the offending key."""


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
        for key, values in (
            ("cloudlets.speed_factor_range", self.speed_factor_range),
            ("cloudlets.speed_factors", self.speed_factors or ()),
            ("network.daemon_rtt_ms", (self.daemon_rtt_ms,)),
            ("network.remote_rtt_range_ms", self.remote_rtt_range_ms),
            ("network.cloud_rtt_ms", (self.cloud_rtt_ms,)),
            ("network.cloudlet_bandwidth_bytes_per_ms", (self.cloudlet_bandwidth_bytes_per_ms,)),
            ("network.cloud_bandwidth_bytes_per_ms", (self.cloud_bandwidth_bytes_per_ms,)),
            ("trace.arrival_rate", (self.arrival_rate,)),
            ("trace.time_unit_ms", (self.time_unit_ms,)),
            ("scheduler.delay_quantum_ms",
             () if self.delay_quantum_ms is None else (self.delay_quantum_ms,)),
            ("scheduler.probe_latency_ms", (self.probe_latency_ms,)),
        ):
            _check(all(isfinite(v) for v in values), key, "must be finite")
        _check(self.cloudlet_count >= 1, "cloudlets.count", "must be >= 1")
        lo, hi = self.vm_count_range
        _check(1 <= lo <= hi, "cloudlets.vm_count_range", "needs 1 <= low <= high")
        if self.vm_counts is not None:
            _check(len(self.vm_counts) == self.cloudlet_count, "cloudlets.vm_counts",
                   f"needs exactly {self.cloudlet_count} entries")
            _check(all(v >= 1 for v in self.vm_counts), "cloudlets.vm_counts",
                   "every entry must be >= 1")
        slo, shi = self.speed_factor_range
        _check(0 < slo <= shi, "cloudlets.speed_factor_range", "needs 0 < low <= high")
        if self.speed_factors is not None:
            _check(len(self.speed_factors) == self.cloudlet_count, "cloudlets.speed_factors",
                   f"needs exactly {self.cloudlet_count} entries")
            _check(all(s > 0 for s in self.speed_factors), "cloudlets.speed_factors",
                   "every entry must be > 0")
        _check(self.daemon_rtt_ms >= 0, "network.daemon_rtt_ms", "must be >= 0")
        rlo, rhi = self.remote_rtt_range_ms
        _check(0 <= rlo <= rhi, "network.remote_rtt_range_ms", "needs 0 <= low <= high")
        _check(self.cloud_rtt_ms >= 0, "network.cloud_rtt_ms", "must be >= 0")
        _check(self.cloudlet_bandwidth_bytes_per_ms > 0,
               "network.cloudlet_bandwidth_bytes_per_ms", "must be > 0")
        _check(self.cloud_bandwidth_bytes_per_ms > 0,
               "network.cloud_bandwidth_bytes_per_ms", "must be > 0")
        _check(self.task_count >= 0, "trace.task_count", "must be >= 0")
        _check(self.arrival_rate > 0, "trace.arrival_rate", "must be > 0")
        _check(self.time_unit_ms > 0, "trace.time_unit_ms", "must be > 0")
        if self.delay_quantum_ms is not None:
            _check(self.delay_quantum_ms > 0, "scheduler.delay_quantum_ms", "must be > 0")
        _check(self.max_delays >= 1, "scheduler.max_delays", "must be >= 1")
        _check(self.probe_latency_ms >= 0, "scheduler.probe_latency_ms", "must be >= 0")
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

    def trace_spec(self, *, task_count: int | None = None, arrival_rate: float | None = None,
                   seed: int | None = None) -> TraceSpec:
        return TraceSpec(
            task_count=self.task_count if task_count is None else task_count,
            arrival_rate=self.arrival_rate if arrival_rate is None else arrival_rate,
            catalog=self.catalog,
            cloudlet_count=self.cloudlet_count,
            seed=self.seed if seed is None else seed,
            time_unit_ms=self.time_unit_ms,
        )

    def override(self, **changes) -> "EdgeCloudConfig":
        return replace(self, **changes)


def _check(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"{key}: {message}")


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


def _benchmark_to_mapping(b: Benchmark) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": b.name,
        "class": b.task_class.token,
        "base_service_ms": b.base_service_ms,
        "mobile_ms": b.mobile_ms,
        "cloud_ms": b.cloud_ms,
        "data_bytes": b.data_bytes,
        "weight": b.weight,
    }
    if b.bound_factor is not None:
        out["bound_factor"] = b.bound_factor
    return out


def _benchmark_from_mapping(data: Mapping[str, Any], path: str) -> Benchmark:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    allowed = {"name", "class", "base_service_ms", "mobile_ms", "cloud_ms",
               "data_bytes", "weight", "bound_factor"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    try:
        return Benchmark(
            name=str(data["name"]),
            task_class=TaskClass.from_token(str(data["class"])),
            base_service_ms=float(data["base_service_ms"]),
            mobile_ms=float(data["mobile_ms"]),
            cloud_ms=float(data["cloud_ms"]),
            data_bytes=float(data["data_bytes"]),
            bound_factor=float(data["bound_factor"]) if "bound_factor" in data else None,
            weight=float(data.get("weight", 1.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def to_mapping(config: EdgeCloudConfig) -> dict[str, Any]:
    """Nested plain-data form of a config, ready for YAML."""
    cloudlets: dict[str, Any] = {
        "count": config.cloudlet_count,
        "vm_count_range": list(config.vm_count_range),
        "speed_factor_range": list(config.speed_factor_range),
    }
    if config.vm_counts is not None:
        cloudlets["vm_counts"] = list(config.vm_counts)
    if config.speed_factors is not None:
        cloudlets["speed_factors"] = list(config.speed_factors)
    return {
        "seed": config.seed,
        "cloudlets": cloudlets,
        "network": {
            "daemon_rtt_ms": config.daemon_rtt_ms,
            "remote_rtt_range_ms": list(config.remote_rtt_range_ms),
            "cloud_rtt_ms": config.cloud_rtt_ms,
            "cloudlet_bandwidth_bytes_per_ms": config.cloudlet_bandwidth_bytes_per_ms,
            "cloud_bandwidth_bytes_per_ms": config.cloud_bandwidth_bytes_per_ms,
        },
        "trace": {
            "task_count": config.task_count,
            "arrival_rate": config.arrival_rate,
            "time_unit_ms": config.time_unit_ms,
        },
        "scheduler": {
            "delay_quantum_ms": config.delay_quantum_ms,
            "max_delays": config.max_delays,
            "probe_latency_ms": config.probe_latency_ms,
        },
        "catalog": [_benchmark_to_mapping(b) for b in config.catalog],
    }


class _Section:
    """Typed reader over one mapping level; tracks consumed keys."""

    def __init__(self, data: Mapping[str, Any], path: str):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path or '<root>'}: expected a mapping, got {type(data).__name__}")
        self._data = data
        self._path = path
        self._seen: set[str] = set()

    def _full(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def child(self, key: str) -> "_Section":
        self._seen.add(key)
        return _Section(self._data.get(key, {}), self._full(key))

    def value(self, key: str, kind, default):
        self._seen.add(key)
        if key not in self._data or self._data[key] is None:
            return default
        raw = self._data[key]
        try:
            if kind is int:
                if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                    raise TypeError
                return int(raw)
            if kind is float:
                if isinstance(raw, bool):
                    raise TypeError
                return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self._full(key)}: expected {kind.__name__}, got {raw!r}"
            ) from None
        return raw

    def pair(self, key: str, kind, default):
        self._seen.add(key)
        if key not in self._data or self._data[key] is None:
            return default
        raw = self._data[key]
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ConfigError(f"{self._full(key)}: expected a [low, high] pair")
        try:
            return (kind(raw[0]), kind(raw[1]))
        except (TypeError, ValueError):
            raise ConfigError(f"{self._full(key)}: expected {kind.__name__} entries") from None

    def sequence(self, key: str, kind):
        self._seen.add(key)
        if key not in self._data or self._data[key] is None:
            return None
        raw = self._data[key]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{self._full(key)}: expected a list")
        try:
            return tuple(kind(v) for v in raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{self._full(key)}: expected {kind.__name__} entries") from None

    def raw(self, key: str):
        self._seen.add(key)
        return self._data.get(key)

    def reject_unknown(self) -> None:
        for key in self._data:
            if key not in self._seen:
                raise ConfigError(f"{self._full(key)}: unknown key")


def from_mapping(data: Mapping[str, Any] | None) -> EdgeCloudConfig:
    """Build a config from nested plain data; missing keys take defaults."""
    root = _Section(data if data is not None else {}, "")
    defaults = EdgeCloudConfig()

    cloudlets = root.child("cloudlets")
    network = root.child("network")
    trace = root.child("trace")
    scheduler = root.child("scheduler")

    catalog = defaults.catalog
    raw_catalog = root.raw("catalog")
    if raw_catalog is not None:
        if not isinstance(raw_catalog, (list, tuple)):
            raise ConfigError("catalog: expected a list of benchmarks")
        catalog = tuple(
            _benchmark_from_mapping(entry, f"catalog[{i}]")
            for i, entry in enumerate(raw_catalog)
        )

    try:
        config = EdgeCloudConfig(
            cloudlet_count=cloudlets.value("count", int, defaults.cloudlet_count),
            vm_count_range=cloudlets.pair("vm_count_range", int, defaults.vm_count_range),
            vm_counts=cloudlets.sequence("vm_counts", int),
            speed_factor_range=cloudlets.pair("speed_factor_range", float,
                                              defaults.speed_factor_range),
            speed_factors=cloudlets.sequence("speed_factors", float),
            daemon_rtt_ms=network.value("daemon_rtt_ms", float, defaults.daemon_rtt_ms),
            remote_rtt_range_ms=network.pair("remote_rtt_range_ms", float,
                                             defaults.remote_rtt_range_ms),
            cloud_rtt_ms=network.value("cloud_rtt_ms", float, defaults.cloud_rtt_ms),
            cloudlet_bandwidth_bytes_per_ms=network.value(
                "cloudlet_bandwidth_bytes_per_ms", float,
                defaults.cloudlet_bandwidth_bytes_per_ms),
            cloud_bandwidth_bytes_per_ms=network.value(
                "cloud_bandwidth_bytes_per_ms", float,
                defaults.cloud_bandwidth_bytes_per_ms),
            task_count=trace.value("task_count", int, defaults.task_count),
            arrival_rate=trace.value("arrival_rate", float, defaults.arrival_rate),
            time_unit_ms=trace.value("time_unit_ms", float, defaults.time_unit_ms),
            delay_quantum_ms=scheduler.value("delay_quantum_ms", float, None),
            max_delays=scheduler.value("max_delays", int, defaults.max_delays),
            probe_latency_ms=scheduler.value("probe_latency_ms", float,
                                             defaults.probe_latency_ms),
            seed=root.value("seed", int, defaults.seed),
            catalog=catalog,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cloudlets.reject_unknown()
    network.reject_unknown()
    trace.reject_unknown()
    scheduler.reject_unknown()
    root.reject_unknown()
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
    if data is not None and not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    return from_mapping(data)


def save_config(config: EdgeCloudConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_mapping(config), fh, sort_keys=False)
