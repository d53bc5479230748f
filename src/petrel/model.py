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
from typing import Mapping, Sequence, Union


class TaskClass(Enum):
    """Application category driving the scheduling policy for a task."""

    LATENCY_SENSITIVE = "sensitive"
    LATENCY_TOLERANT = "tolerant"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "TaskClass":
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown task class {token!r} (expected 'sensitive' or 'tolerant')")


@dataclass(frozen=True)
class Task:
    """One offloading request.

    ``base_service_time`` is the execution time on a reference-speed
    cloudlet; the actual time on a cloudlet divides it by that node's
    speed factor.  ``latency_bound`` is a turnaround bound relative to
    arrival, required for tolerant tasks and forbidden for sensitive
    ones.
    """

    id: int
    arrival_time: float
    daemon_id: int
    task_class: TaskClass
    base_service_time: float
    mobile_exec_time: float
    cloud_exec_time: float
    data_volume: float
    latency_bound: float | None = None
    benchmark: str = ""

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"task {self.id}: arrival_time must be >= 0")
        if self.base_service_time <= 0:
            raise ValueError(f"task {self.id}: base_service_time must be > 0")
        if self.mobile_exec_time <= 0:
            raise ValueError(f"task {self.id}: mobile_exec_time must be > 0")
        if self.cloud_exec_time <= 0:
            raise ValueError(f"task {self.id}: cloud_exec_time must be > 0")
        if self.data_volume < 0:
            raise ValueError(f"task {self.id}: data_volume must be >= 0")
        if self.task_class is TaskClass.LATENCY_TOLERANT:
            if self.latency_bound is None or self.latency_bound <= 0:
                raise ValueError(f"task {self.id}: tolerant tasks need a positive latency_bound")
        elif self.latency_bound is not None:
            raise ValueError(f"task {self.id}: sensitive tasks must not carry a latency_bound")

    @property
    def deadline(self) -> float | None:
        """Absolute wall-clock deadline, or None for sensitive tasks."""
        if self.latency_bound is None:
            return None
        return self.arrival_time + self.latency_bound


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
        if self.vm_count < 1:
            raise ValueError(f"cloudlet {self.id}: vm_count must be >= 1")
        if self.speed_factor <= 0:
            raise ValueError(f"cloudlet {self.id}: speed_factor must be > 0")

    def exec_time(self, task: Task) -> float:
        """Service time of ``task`` on this node."""
        return task.base_service_time / self.speed_factor


@dataclass(frozen=True)
class EdgeCloud:
    """The interconnected set of cloudlets tasks can be placed on."""

    cloudlets: tuple[Cloudlet, ...]
    ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _by_id: dict[int, Cloudlet] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {c.id: c for c in self.cloudlets}
        if len(by_id) != len(self.cloudlets):
            raise ValueError("duplicate cloudlet ids")
        object.__setattr__(self, "ids", tuple(by_id))
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.cloudlets)

    def __iter__(self):
        return iter(self.cloudlets)

    def get(self, cloudlet_id: int) -> Cloudlet:
        try:
            return self._by_id[cloudlet_id]
        except KeyError:
            raise KeyError(f"unknown cloudlet id {cloudlet_id}") from None


@dataclass(frozen=True)
class Allocation:
    """Where a task ended up: the device, the cloud, or one cloudlet."""

    kind: str  # "mobile" | "cloud" | "cloudlet"
    cloudlet_id: int | None = None

    _KINDS = ("mobile", "cloud", "cloudlet")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown allocation kind {self.kind!r}")
        if (self.kind == "cloudlet") != (self.cloudlet_id is not None):
            raise ValueError("cloudlet_id is required exactly when kind == 'cloudlet'")

    @classmethod
    def mobile(cls) -> "Allocation":
        return cls("mobile")

    @classmethod
    def cloud(cls) -> "Allocation":
        return cls("cloud")

    @classmethod
    def cloudlet(cls, cloudlet_id: int) -> "Allocation":
        return cls("cloudlet", cloudlet_id)

    @property
    def executor_label(self) -> str:
        return str(self.cloudlet_id) if self.kind == "cloudlet" else self.kind


@dataclass(frozen=True)
class CompletionBreakdown:
    """Completion time split into execution, wait, and communication."""

    exec: float
    wait: float
    comm: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.exec < 0 or self.wait < 0 or self.comm < 0:
            raise ValueError("breakdown components must be >= 0")
        object.__setattr__(self, "total", self.exec + self.wait + self.comm)


def completion_time_mobile(task: Task) -> CompletionBreakdown:
    """Completion when the task stays on the device: pure execution."""
    return CompletionBreakdown(exec=task.mobile_exec_time, wait=0.0, comm=0.0)


def completion_time_cloud(task: Task, net: NetworkParams) -> CompletionBreakdown:
    """Completion on the cloud: execution plus transfer, never any queueing."""
    if net.cloud_bandwidth <= 0:
        raise ValueError("cloud_bandwidth must be > 0")
    comm = task.data_volume / net.cloud_bandwidth + net.cloud_rtt
    return CompletionBreakdown(exec=task.cloud_exec_time, wait=0.0, comm=comm)


def completion_time_daemon(task: Task, cloudlet: Cloudlet, wait: float) -> CompletionBreakdown:
    """Completion on the task's own daemon cloudlet."""
    if wait < 0:
        raise ValueError("wait must be >= 0")
    comm = task.data_volume / cloudlet.net.cloudlet_bandwidth + cloudlet.net.daemon_rtt
    return CompletionBreakdown(exec=cloudlet.exec_time(task), wait=wait, comm=comm)


def completion_time_remote(
    task: Task, daemon: Cloudlet, executor: Cloudlet, wait: float
) -> CompletionBreakdown:
    """Completion on a non-daemon executor: the redirect costs one extra RTT."""
    if executor.id == daemon.id:
        raise ValueError("executor equals daemon; use completion_time_daemon")
    if wait < 0:
        raise ValueError("wait must be >= 0")
    comm = (
        task.data_volume / executor.net.cloudlet_bandwidth
        + daemon.net.daemon_rtt
        + daemon.net.rtt_to(executor.id)
    )
    return CompletionBreakdown(exec=executor.exec_time(task), wait=wait, comm=comm)


def speedup(task: Task, alloc: Allocation, completion: float) -> float:
    """Benefit of the chosen placement: device execution time over achieved completion.

    Values above 1 mean offloading beat running the task locally.
    """
    if completion <= 0:
        raise ValueError("completion must be > 0")
    return task.mobile_exec_time / completion


def average_speedup(records: Sequence[tuple[Task, Allocation, float]]) -> float:
    """Mean speedup over (task, allocation, completion) outcomes."""
    if not records:
        raise ValueError("average_speedup needs at least one record")
    return sum(speedup(t, a, c) for t, a, c in records) / len(records)
