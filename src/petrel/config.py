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
from math import inf, isfinite
from typing import Any, Mapping

import yaml

from .model import Cloudlet, EdgeCloud, NetworkParams, in_range, plain_number, shown
from .seeding import new_rng
from .workload import _ENTRY_LAYOUT, MS_PER_SECOND, Benchmark, TaskClass, default_catalog


class ConfigError(ValueError):
    """A config file is malformed; the message names the offending key."""

    @classmethod
    def at(cls, name: str, message: str) -> "ConfigError":
        """The error for config field ``name``, under its key path in the file."""
        return cls(f"{_PATHS[name]}: {message}")


DEFAULT_SEED = 1234


def _key(path: str, default, kind, bound: str | None = None, shape: str = "value"):
    """The field for config key ``path`` (no dot: a top-level key), whose value, or each
    entry, is a ``kind``; a callable ``default`` is a factory.  ``shape`` is "value", "pair"
    (a [low, high] list) or "list" (left out of the file when None); ``bound``, one of
    ``model._BOUNDS`` such as ">= 1" or "> 0", holds for the value, every list entry or a
    pair's low end."""
    default = {"default_factory" if callable(default) else "default": default}
    return field(**default, metadata={"layout": (path, shape, kind, bound)})


@dataclass(frozen=True)
class EdgeCloudConfig:
    """Full description of an experiment, minus the trace itself.

    Each field declares its key once (see ``_key``), in file order; the file
    layout, the shape and type checks, the finiteness checks and the range checks
    follow from those declarations, and only the checks that read two fields are
    written out.  Only a key whose default is None may be None, and a number key
    or entry is stored as a plain int or float, a pair or list as a tuple."""

    seed: int = _key("seed", DEFAULT_SEED, int)
    cloudlet_count: int = _key("cloudlets.count", 10, int, ">= 1 and <= 2**63 - 1")
    vm_count_range: tuple[int, int] = _key("cloudlets.vm_count_range", (1, 10), int, ">= 1", "pair")
    speed_factor_range: tuple[float, float] = _key(
        "cloudlets.speed_factor_range", (1.0, 1.0), float, "> 0", "pair")
    vm_counts: tuple[int, ...] | None = _key("cloudlets.vm_counts", None, int, ">= 1", "list")
    speed_factors: tuple[float, ...] | None = _key(
        "cloudlets.speed_factors", None, float, "> 0", "list")

    daemon_rtt_ms: float = _key("network.daemon_rtt_ms", 10.0, float, ">= 0")
    remote_rtt_range_ms: tuple[float, float] = _key(
        "network.remote_rtt_range_ms", (50.0, 70.0), float, ">= 0", "pair")
    cloud_rtt_ms: float = _key("network.cloud_rtt_ms", 250.0, float, ">= 0")
    cloudlet_bandwidth_bytes_per_ms: float = _key(
        "network.cloudlet_bandwidth_bytes_per_ms", 12500.0, float, "> 0")
    cloud_bandwidth_bytes_per_ms: float = _key(
        "network.cloud_bandwidth_bytes_per_ms", 800.0, float, "> 0")

    task_count: int = _key("trace.task_count", 200, int, ">= 0 and <= 2**63 - 1")
    arrival_rate: float = _key("trace.arrival_rate", 1.0, float, "> 0")  # tasks per second

    delay_quantum_ms: float | None = _key("scheduler.delay_quantum_ms", None, float, "> 0")
    probe_latency_ms: float = _key("scheduler.probe_latency_ms", 1500.0, float, ">= 0")

    catalog: tuple[Benchmark, ...] = _key("catalog", lambda: tuple(default_catalog()),
                                          Benchmark, shape="list")

    def __post_init__(self) -> None:
        for name, _, shape, kind, bound in _LAYOUT:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            if shape != "value":
                _check_shape(value, _PATHS[name], shape, kind)
            entries = (value,) if shape == "value" else value
            if kind in (int, float):  # stored plain: a numpy number draws and saves as one
                entries = tuple(plain_number(v, kind) for v in entries)
            # no bool, as from a file; no str; no float for an int; no None; no huge int
            typed = all(isinstance(v, kind) for v in entries)
            _check(typed, name, f"expected {kind.__name__} entries"
                   if shape != "value" else f"expected {kind.__name__}, got {shown(value)}")
            value = entries[0] if shape == "value" else tuple(entries)
            object.__setattr__(self, name, value)
            if kind is float:
                _check(all(map(isfinite, entries)), name, "must be finite")
            if bound is None:
                continue
            if shape == "pair":
                op, low = bound.split()
                _check(in_range(value[0], bound) and value[0] <= value[1], name,
                       f"needs {low} {op.replace('>', '<')} low <= high")
                continue
            if shape == "list":
                _check(len(value) == self.cloudlet_count, name,
                       f"needs exactly {self.cloudlet_count} entries")
            _check(all(in_range(v, bound) for v in entries), name,
                   f"{'every entry ' if shape == 'list' else ''}must be {bound}")
        _check(isfinite(MS_PER_SECOND / self.arrival_rate), "arrival_rate",
               "the mean arrival gap, 1000 ms / arrival_rate, must be finite")
        _check(len(self.catalog) >= 1, "catalog", "must have at least one benchmark")
        names = [b.name for b in self.catalog]
        _check(len(set(names)) == len(names), "catalog", "benchmark names must be unique")
        _check(self.delay_quantum_ms is not None or 0 < self.resolve_delay_quantum() < inf,
               "catalog", "the default delay quantum, the mean base_service_ms / 40, must be"
               " finite and > 0; set scheduler.delay_quantum_ms")

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
        total = 0.0
        for value in pool:  # left to right: sum() of floats is compensated from Python 3.12
            total += value
        return total / len(pool) / 40.0

    def override(self, **changes) -> "EdgeCloudConfig":
        return replace(self, **changes)


def _check(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ConfigError.at(name, message)


def _check_shape(value, path: str, shape: str, kind) -> None:
    """Reject a pair or list key's ``value``, from a file or a caller, unless it is a
    list or tuple of its shape."""
    if not isinstance(value, (list, tuple)) or shape == "pair" and len(value) != 2:
        wanted = ("a list of benchmarks" if kind is Benchmark
                  else "a [low, high] pair" if shape == "pair" else "a list")
        raise ConfigError(f"{path}: expected {wanted}")


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
    rtts = iter(rng.uniform(rlo, rhi, size=n * (n - 1)).tolist())  # as n * (n - 1) scalar draws
    remote = [{j: next(rtts) for j in range(n) if j != i} for i in range(n)]

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


# The file layout, in file order: (field, key path, shape, kind, bound), as declared.
_LAYOUT = tuple((f.name, *f.metadata["layout"]) for f in fields(EdgeCloudConfig))
_PATHS = {name: path for name, path, *_ in _LAYOUT}
# the keys that may be None, as their default is
_OPTIONAL = {f.name for f in fields(EdgeCloudConfig) if f.default is None}
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
    return value.value if isinstance(value, TaskClass) else value


def to_mapping(config: EdgeCloudConfig) -> dict[str, Any]:
    """Nested plain-data form of a config, ready for YAML."""
    out: dict[str, Any] = {}
    for name, path, shape, _, _ in _LAYOUT:
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
        raise TypeError(f"expected {kind.__name__}, got {shown(raw)}")
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
            wanted = exc if kind is TaskClass else f"expected {kind.__name__}, got {shown(raw)}"
            raise ConfigError(f"{path}: {wanted}") from None
    _check_shape(raw, path, shape, kind)
    if kind is Benchmark:
        return tuple(_benchmark(entry, f"{path}[{i}]") for i, entry in enumerate(raw))
    try:
        return tuple(_scalar(v, kind) for v in raw)
    except _BAD_VALUE:
        raise ConfigError(f"{path}: expected {kind.__name__} entries") from None


def from_mapping(data: Mapping[str, Any] | None) -> EdgeCloudConfig:
    """Build a config from nested plain data; missing keys take defaults."""
    root = _mapping({} if data is None else data, "<root>")
    sections = {"": root} | {s: _mapping(root.get(s, {}), s) for s in _SECTIONS}
    values = {}
    for name, path, shape, kind, _ in _LAYOUT:
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


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, except that a key repeated in one mapping
    is an error rather than a silent override.  A key written beside a merge
    key (``<<``) may still override what the merge brings in, as YAML allows."""

    def construct_mapping(self, node, deep=False):
        entries = list(node.value) if isinstance(node, yaml.MappingNode) else []
        mapping = super().construct_mapping(node, deep=deep)  # merges, checks hashability
        seen = set()
        for key_node, _ in entries:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)  # built above, so cached
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"{mark.name}: line {mark.line + 1}: repeated key {key!r}")
            seen.add(key)
        return mapping


def load_config(path) -> EdgeCloudConfig:
    """Parse a YAML config file; an empty file yields the defaults, and a
    key repeated in one mapping is an error.  A YAML fault is one line,
    naming the file line where PyYAML found it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}: " if mark and exc.problem else ""
        what = exc.problem if where else str(exc).partition("\n")[0]  # PyYAML's first line
        raise ConfigError(f"{path}: {where}invalid YAML: {what}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}"
                          f" ({exc.reason})") from None
    except ConfigError:
        raise
    except ValueError as exc:  # a value Python cannot build, such as an over-long int
        raise ConfigError(f"{path}: cannot read a value: {exc}") from None
    return from_mapping(data)


def save_config(config: EdgeCloudConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_mapping(config), fh, sort_keys=False)
