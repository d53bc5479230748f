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
from math import inf
from numbers import Integral, Real
from operator import ge, gt
from typing import Mapping, NamedTuple, Union

# each range a value may declare, as a config key spells it: (lower test, low, exclusive high)
# the two counts stop where numpy still tries to allocate their arrays, of at most 2**63 - 1
# bytes: 8 * n of float64 arrivals for n tasks, 8 * n * (n - 1) of RTT draws for n cloudlets
_BOUNDS = {"> 0": (gt, 0, inf), ">= 0": (ge, 0, inf), ">= 1": (ge, 1, inf), None: (ge, -inf, inf),
           ">= 0 and <= 2**60 - 1": (ge, 0, 2**60), ">= 1 and <= 2**30": (ge, 1, 2**30 + 1)}
# the numbers an int or float takes, bool aside
_NUMBERS = {int: Integral, float: Real}


def plain_number(value, kind: type = float):
    """``value`` as a plain ``kind``, int or float, or None if it is not one: the one number
    rule.  A bool is no number, a float no int, and an int past the float range no float."""
    if isinstance(value, _NUMBERS[kind]) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    return None


def shown(value) -> str:
    """``repr(value)``, or the size of an int past Python's int-string digit limit."""
    try:
        return repr(value)
    except ValueError:  # an int too long to print
        return f"an int of {value.bit_length()} bits"


def in_range(value, bound: str | None = None) -> bool:
    """Whether ``value`` is finite and meets ``bound``; an int too large for a float is finite."""
    above, low, high = _BOUNDS[bound]
    return -inf < value < high and above(value, low)


def check_range(value, name: str, bound: str | None = None) -> None:
    """The one range rule: raise ``"<name> must be finite"`` or ``"<name> must be <bound>"``."""
    if not in_range(value, bound):
        raise ValueError(f"{name} must be {bound if -inf < value < inf else 'finite'}")


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
    it across that entry's tasks, so the values are checked once, in
    column order, against the bounds ``_PROFILE_COLUMNS`` declares.  A
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
        if not isinstance(self.task_class, TaskClass):
            raise ValueError(f"class must be a TaskClass, got {shown(self.task_class)}")
        for name, column, bound in _PROFILE_COLUMNS:
            value = getattr(self, name)
            if value is not None or bound is not None:  # only the unbounded bound_ms may be None
                check_range(value, column, bound)
        if self.task_class is TaskClass.LATENCY_TOLERANT:
            if self.latency_bound is None or self.latency_bound <= 0:
                raise ValueError("tolerant tasks need a positive latency_bound")
        elif self.latency_bound is not None:
            raise ValueError("sensitive tasks must not carry a latency_bound")


# each float, its trace column and lower bound, as the trace lays them out; four are catalog keys
_PROFILE_COLUMNS = (("base_service_time", "base_service_ms", "> 0"),
                    ("mobile_exec_time", "mobile_ms", "> 0"),
                    ("cloud_exec_time", "cloud_ms", "> 0"),
                    ("data_volume", "data_bytes", ">= 0"),
                    ("latency_bound", "bound_ms", None))


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
        check_range(arrival_time, f"task {id}: arrival_time", ">= 0")
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
    real number (a numpy scalar will do) applied to every target or a
    mapping keyed by executor id.  A message names the faulty field, or
    the entry as ``remote_rtt[id]``.
    """

    daemon_rtt: float
    cloudlet_bandwidth: float
    cloud_rtt: float
    cloud_bandwidth: float
    remote_rtt: Union[float, Mapping[int, float]] = 0.0

    def __post_init__(self) -> None:
        for name, bound in (("daemon_rtt", ">= 0"), ("cloudlet_bandwidth", "> 0"),
                            ("cloud_rtt", ">= 0"), ("cloud_bandwidth", "> 0")):
            check_range(getattr(self, name), name, bound)
        rtt = self.remote_rtt
        if isinstance(rtt, Real):
            check_range(rtt, "remote_rtt", ">= 0")
        else:
            for target, value in rtt.items():
                if not in_range(value, ">= 0"):  # an entry's name is built only if it is faulty
                    check_range(value, f"remote_rtt[{target}]", ">= 0")

    def rtt_to(self, executor_id: int) -> float:
        """Redirect round trip from this daemon to the given executor."""
        if isinstance(self.remote_rtt, Real):
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
        check_range(self.vm_count, f"cloudlet {self.id}: vm_count", ">= 1")
        check_range(self.speed_factor, f"cloudlet {self.id}: speed_factor", "> 0")


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
    :meth:`floor` bounds every peer's entry from below."""

    __slots__ = ("_by_id", "_daemon", "_profile", "cloud", "_floor")

    def __init__(self, by_id: dict[int, Cloudlet], daemon_id: int, profile: Profile):
        super().__init__()
        self._by_id, self._daemon, self._profile = by_id, by_id[daemon_id], profile
        self.cloud = cloud_times(profile, self._daemon.net)
        self._floor = None

    def __missing__(self, executor_id: int) -> tuple[float, float]:
        times = self[executor_id] = placement_times(self._profile, self._daemon,
                                                    self._by_id[executor_id])
        return times

    def floor(self) -> tuple[float, float]:
        """(least exec, least comm) over the daemon's peers, priced once: ``(inf, inf)``
        without peers, and ``(-inf, -inf)``, no floor, when a peer has no redirect RTT."""
        if self._floor is None:
            daemon_id = self._daemon.id
            try:
                peers = [self[c] for c in self._by_id if c != daemon_id]
            except ValueError:  # the scan prices that peer and raises at each use
                peers = [(-inf, -inf)]
            self._floor = tuple(map(min, zip(*peers))) if peers else (inf, inf)
        return self._floor


def speedup(task: Task, turnaround: float) -> float:
    """Benefit of a placement: device execution time over the achieved turnaround,
    completion minus arrival, not the absolute completion time.

    Values above 1 mean offloading beat running the task locally.
    """
    if turnaround <= 0:
        raise ValueError("turnaround must be > 0")
    return task.profile.mobile_exec_time / turnaround
