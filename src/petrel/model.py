"""Core timing model for offloaded tasks.

A task can run on the mobile device itself, on the remote cloud, on its
daemon cloudlet (the cloudlet closest to the device), or on another
execution cloudlet reached through the daemon.  Each placement has a
completion time made of three parts: execution, queueing wait, and
communication (transfer plus round-trip delays).  All durations are
milliseconds as floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from numbers import Integral
from typing import Mapping, NamedTuple, Union


class TaskClass(Enum):
    """Application category driving the scheduling policy for a task."""

    LATENCY_SENSITIVE = "sensitive"
    LATENCY_TOLERANT = "tolerant"

    @classmethod
    def from_token(cls, token: str) -> "TaskClass":
        try:
            return _TASK_CLASS_BY_TOKEN[token]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown task class {token!r} (expected 'sensitive' or 'tolerant')"
            ) from None


_TASK_CLASS_BY_TOKEN = {member.value: member for member in TaskClass}


@dataclass(frozen=True, slots=True)
class Profile:
    """What every task of one application type shares.

    ``base_service_time`` is the execution time on a reference-speed
    cloudlet; the actual time on a cloudlet divides it by that node's
    speed factor.  ``latency_bound`` is a turnaround bound relative to
    arrival, required for tolerant tasks and forbidden for sensitive
    ones.  Each catalog entry builds its profile once and a trace shares
    it across that entry's tasks, so the values are checked once.  A
    message names a value by its trace column.
    """

    benchmark: str
    task_class: TaskClass
    base_service_time: float
    mobile_exec_time: float
    cloud_exec_time: float
    data_volume: float
    latency_bound: float | None = None

    def __post_init__(self) -> None:
        for name, column in _PROFILE_COLUMNS:
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{column} must be finite")
        if self.base_service_time <= 0:
            raise ValueError("base_service_ms must be > 0")
        if self.mobile_exec_time <= 0:
            raise ValueError("mobile_ms must be > 0")
        if self.cloud_exec_time <= 0:
            raise ValueError("cloud_ms must be > 0")
        if self.data_volume < 0:
            raise ValueError("data_bytes must be >= 0")
        if self.task_class is TaskClass.LATENCY_TOLERANT:
            if self.latency_bound is None or self.latency_bound <= 0:
                raise ValueError("tolerant tasks need a positive latency_bound")
        elif self.latency_bound is not None:
            raise ValueError("sensitive tasks must not carry a latency_bound")


# each float and its trace column; the first four are catalog keys too
_PROFILE_COLUMNS = (("base_service_time", "base_service_ms"), ("mobile_exec_time", "mobile_ms"),
                    ("cloud_exec_time", "cloud_ms"), ("data_volume", "data_bytes"),
                    ("latency_bound", "bound_ms"))


class _TaskFields(NamedTuple):
    id: int
    arrival_time: float
    daemon_id: int
    profile: Profile


class Task(_TaskFields):
    """One offloading request: when and where it arrives, and its type's profile.

    A named tuple, so it is immutable, builds and reads cheaply and
    compares by value; only the arrival is checked here, since the
    profile was checked when it was built.
    """

    __slots__ = ()

    def __new__(cls, id: int, arrival_time: float, daemon_id: int, profile: Profile) -> "Task":
        if not isfinite(arrival_time):
            raise ValueError(f"task {id}: arrival_time must be finite")
        if arrival_time < 0:
            raise ValueError(f"task {id}: arrival_time must be >= 0")
        return tuple.__new__(cls, (id, arrival_time, daemon_id, profile))

    @classmethod
    def _make(cls, iterable) -> "Task":
        # ``_replace`` builds through ``_make``, so a replaced task is checked too
        return cls(*iterable)

    @property
    def deadline(self) -> float | None:
        """Absolute wall-clock deadline, or None for sensitive tasks."""
        bound = self.profile.latency_bound
        if bound is None:
            return None
        return self.arrival_time + bound


@dataclass(frozen=True)
class NetworkParams:
    """Network view for one cloudlet.

    ``remote_rtt`` is the extra round trip paid when this node, acting
    as a daemon, redirects a task to another cloudlet.  It is either one
    value applied to every target or a mapping keyed by executor id.
    """

    daemon_rtt: float
    cloudlet_bandwidth: float
    cloud_rtt: float
    cloud_bandwidth: float
    remote_rtt: Union[float, Mapping[int, float]] = 0.0

    def __post_init__(self) -> None:
        for name in ("daemon_rtt", "cloudlet_bandwidth", "cloud_rtt", "cloud_bandwidth"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.daemon_rtt < 0 or self.cloud_rtt < 0:
            raise ValueError("RTTs must be >= 0")
        if self.cloudlet_bandwidth <= 0 or self.cloud_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if isinstance(self.remote_rtt, (int, float)):
            if not isfinite(self.remote_rtt):
                raise ValueError("remote_rtt must be finite")
            if self.remote_rtt < 0:
                raise ValueError("remote_rtt must be >= 0")
        else:
            if not all(isfinite(v) for v in self.remote_rtt.values()):
                raise ValueError("remote_rtt entries must be finite")
            if any(v < 0 for v in self.remote_rtt.values()):
                raise ValueError("remote_rtt entries must be >= 0")

    def rtt_to(self, executor_id: int) -> float:
        """Redirect round trip from this daemon to the given executor."""
        if isinstance(self.remote_rtt, (int, float)):
            return float(self.remote_rtt)
        try:
            return float(self.remote_rtt[executor_id])
        except KeyError:
            raise ValueError(f"no redirect RTT configured towards cloudlet {executor_id}") from None


@dataclass(frozen=True)
class Cloudlet:
    """A small edge server with a fixed number of VMs."""

    id: int
    vm_count: int
    speed_factor: float
    net: NetworkParams

    def __post_init__(self) -> None:
        if not isinstance(self.vm_count, Integral):
            raise ValueError(f"cloudlet {self.id}: vm_count must be an int, got {self.vm_count!r}")
        if self.vm_count < 1:
            raise ValueError(f"cloudlet {self.id}: vm_count must be >= 1")
        if not isfinite(self.speed_factor):
            raise ValueError(f"cloudlet {self.id}: speed_factor must be finite")
        if self.speed_factor <= 0:
            raise ValueError(f"cloudlet {self.id}: speed_factor must be > 0")


@dataclass(frozen=True)
class EdgeCloud:
    """The interconnected set of cloudlets tasks can be placed on."""

    cloudlets: tuple[Cloudlet, ...]
    ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _by_id: dict[int, Cloudlet] = field(init=False, repr=False, compare=False)
    # (daemon_id, id(profile)) -> cost row, shared by every run on this topology
    _costs: dict[tuple[int, int], _CostRow] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {c.id: c for c in self.cloudlets}
        if len(by_id) != len(self.cloudlets):
            raise ValueError("duplicate cloudlet ids")
        object.__setattr__(self, "ids", tuple(by_id))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_costs", {})

    def __len__(self) -> int:
        return len(self.cloudlets)

    def __iter__(self):
        return iter(self.cloudlets)

    def get(self, cloudlet_id: int) -> Cloudlet:
        try:
            return self._by_id[cloudlet_id]
        except KeyError:
            raise KeyError(f"unknown cloudlet id {cloudlet_id}") from None

    def cost_row(self, daemon_id: int, profile: Profile) -> _CostRow:
        """executor_id -> :func:`placement_times` of ``profile`` placed from ``daemon_id``,
        and the cloud's price as ``.cloud``."""
        row = self._costs.get((daemon_id, id(profile)))
        if row is None:
            row = self._costs[daemon_id, id(profile)] = _CostRow(self._by_id, daemon_id, profile)
        return row


def cloud_times(profile: Profile, net: NetworkParams) -> tuple[float, float]:
    """(exec, comm) of a task with ``profile`` on the cloud: the one cloud formula."""
    return profile.cloud_exec_time, profile.data_volume / net.cloud_bandwidth + net.cloud_rtt


def placement_times(profile: Profile, daemon: Cloudlet, executor: Cloudlet) -> tuple[float, float]:
    """(exec, comm) of a task with ``profile`` sent from ``daemon`` to ``executor``: the one
    cloudlet completion formula.

    ``comm`` is the transfer at the executor's access bandwidth plus the
    daemon RTT, plus the daemon's redirect RTT when the executor is
    another cloudlet.  Callers add ``start + exec + comm`` left to right:
    the sums are kept apart because floating-point addition in another
    order can move the last bit of a completion time.
    """
    comm = profile.data_volume / executor.net.cloudlet_bandwidth + daemon.net.daemon_rtt
    if executor.id != daemon.id:
        comm = comm + daemon.net.rtt_to(executor.id)
    return profile.base_service_time / executor.speed_factor, comm


class _CostRow(dict):
    """executor_id -> ``(exec, comm)`` of one profile from one daemon, filled on first use.

    ``cloud`` is :func:`cloud_times` of the profile over the daemon's net,
    kept beside the entries, not under a key, so no executor id reaches it.
    The row holds its profile, so the profile's id, which keys the row,
    is not reused while the row lives.  A missing redirect RTT raises at
    every use and is not cached; an unknown executor raises ``KeyError``.
    """

    __slots__ = ("_by_id", "_daemon", "_profile", "cloud")

    def __init__(self, by_id: dict[int, Cloudlet], daemon_id: int, profile: Profile):
        super().__init__()
        self._by_id, self._daemon, self._profile = by_id, by_id[daemon_id], profile
        self.cloud = cloud_times(profile, self._daemon.net)

    def __missing__(self, executor_id: int) -> tuple[float, float]:
        times = self[executor_id] = placement_times(self._profile, self._daemon,
                                                    self._by_id[executor_id])
        return times


def speedup(task: Task, completion: float) -> float:
    """Benefit of a placement: device execution time over achieved completion.

    Values above 1 mean offloading beat running the task locally.
    """
    if completion <= 0:
        raise ValueError("completion must be > 0")
    return task.profile.mobile_exec_time / completion
