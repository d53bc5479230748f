"""Deterministic discrete-event simulation of an edge-cloud.

The engine advances a virtual clock over task arrivals and delay
wake-ups, the only moments a decision is made.  Each cloudlet keeps one
ready time per VM in a min heap; committing a task pops the earliest
VM, starts the task at ``max(now, ready)``, and pushes the ready time
back.  A task's completion is fixed at commit, so completions are
recorded, not queued as events.  Communication is charged to the task's
completion, not to VM occupancy.

Two runs with the same config, trace, policy, and seed produce
bit-identical records.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Sequence

from .model import (
    Allocation,
    Cloudlet,
    EdgeCloud,
    Task,
    TaskClass,
    completion_time_cloud,
)
from .schedulers import (
    Assign,
    AssignCloud,
    Delay,
    ProbeResult,
    SchedulingDecision,
    make_scheduler,
)
from .seeding import new_rng


class SimulationError(RuntimeError):
    """A run could not proceed (bad trace, bad decision, or safety cap hit)."""


ARRIVAL = "arrival"
DELAY_EXPIRED = "delay-expired"


class Event(NamedTuple):
    """One entry of the event queue; processed in (time, sequence) order.

    Sequences are unique, so heap order never looks past them.
    """

    time: float
    sequence: int
    kind: str
    task_id: int


class VmSchedule:
    """Per-VM next-free timestamps for one cloudlet.

    The earliest ready time is the heap head.  Stale reads
    (:meth:`earliest_ready_asof`) answer with the state as of an earlier
    instant from a pruned commit log: each commit is logged as
    ``(commit_time, vm_index, new_ready)`` and folded into a per-VM list
    of ready times once the read horizon reaches its commit time, so the
    log holds only the commits not yet visible to stale reads.  Reads
    must not go back in time and commits must come in time order.  A
    finite ``staleness`` (the engine's probe latency) also moves the
    horizon to ``commit_time - staleness`` at each commit, since no later
    read looks further back; the log then stays within that window even
    when nothing reads it.
    """

    def __init__(self, vm_count: int, initial_ready: float = 0.0, staleness: float = inf):
        if vm_count < 1:
            raise ValueError("vm_count must be >= 1")
        self._heap: list[tuple[float, int]] = [(initial_ready, i) for i in range(vm_count)]
        heapq.heapify(self._heap)
        self._staleness = staleness
        self._log: deque[tuple[float, int, float]] = deque()
        self._last_commit = -inf
        self._horizon = -inf
        self._stale = [initial_ready] * vm_count
        self._stale_min = initial_ready

    def __len__(self) -> int:
        return len(self._heap)

    def ready_times(self) -> list[float]:
        return sorted(t for t, _ in self._heap)

    def earliest_ready(self) -> float:
        return self._heap[0][0]

    def earliest_ready_asof(self, when: float) -> float:
        """Earliest ready time as it looked at instant ``when``.

        Commits made at exactly ``when`` are visible.  ``when`` must not
        be earlier than the previous read or the pruning horizon.
        """
        if when < self._horizon:
            raise ValueError(
                f"stale read at {when} is older than the pruned horizon {self._horizon}"
            )
        self._advance(when)
        return self._stale_min

    def _advance(self, horizon: float) -> None:
        # the last commit per VM at or before the horizon wins
        if horizon > self._horizon:
            self._horizon = horizon
        log = self._log
        if log and log[0][0] <= horizon:
            stale = self._stale
            while log and log[0][0] <= horizon:
                _, vm_index, ready = log.popleft()
                stale[vm_index] = ready
            self._stale_min = min(stale)

    def has_idle_vm(self, now: float) -> bool:
        return self.earliest_ready() <= now

    def commit(self, now: float, exec_time: float) -> tuple[float, int]:
        """Occupy the earliest-ready VM; returns (start, vm_index)."""
        if now < self._last_commit:
            raise ValueError(f"commit at {now} before the previous commit at {self._last_commit}")
        self._last_commit = now
        ready, vm_index = heapq.heappop(self._heap)
        start = max(now, ready)
        new_ready = start + exec_time
        heapq.heappush(self._heap, (new_ready, vm_index))
        self._log.append((now, vm_index, new_ready))
        self._advance(now - self._staleness)
        return start, vm_index


@dataclass(frozen=True)
class TaskRecord:
    """Final outcome of one task; the input to every metric."""

    task_id: int
    task_class: TaskClass
    daemon_id: int
    allocation: Allocation
    arrival_time: float
    assign_time: float
    start_time: float
    completion_time: float
    turnaround: float
    service_time: float
    speedup: float
    delays_taken: int
    bound_violated: bool | None

    @property
    def weighted_turnaround(self) -> float:
        return self.turnaround / self.service_time


class DecisionEntry(NamedTuple):
    """One scheduler invocation and its outcome, for post-run audits."""

    time: float
    task_id: int
    decision: SchedulingDecision


@dataclass
class SimulationResult:
    records: list[TaskRecord]
    decisions: list[DecisionEntry]
    events: list[Event]
    topology: EdgeCloud


_Route = tuple[float, float, float, float | None]


def _placement_route(daemon: Cloudlet, executor: Cloudlet) -> _Route:
    """What a placement's cost depends on besides the task.

    ``(speed_factor, cloudlet_bandwidth, daemon_rtt, redirect_rtt)``;
    the redirect RTT is None when the executor is the daemon itself.
    """
    redirect = None if executor.id == daemon.id else daemon.net.rtt_to(executor.id)
    return (executor.speed_factor, executor.net.cloudlet_bandwidth, daemon.net.daemon_rtt,
            redirect)


def _placement_times(task: Task, route: _Route) -> tuple[float, float]:
    """(exec, comm) of ``task`` on a route; the model's daemon/remote formulas.

    Callers add ``start + exec + comm`` left to right: the sums are kept
    apart because floating-point addition in another order can move the
    last bit of a completion time.
    """
    speed_factor, bandwidth, daemon_rtt, redirect = route
    comm = task.data_volume / bandwidth + daemon_rtt
    if redirect is not None:
        comm = comm + redirect
    return task.base_service_time / speed_factor, comm


class _RouteCache(dict):
    """(daemon_id, executor_id) -> :func:`_placement_route`, filled on first use.

    A missing redirect RTT raises at the first use of that pair and is
    not cached, so every later use raises again.
    """

    def __init__(self, topology: EdgeCloud):
        super().__init__()
        self._topology = topology

    def __missing__(self, key: tuple[int, int]) -> _Route:
        daemon_id, executor_id = key
        route = _placement_route(self._topology.get(daemon_id), self._topology.get(executor_id))
        self[key] = route
        return route


def expected_completion_time(
    task: Task,
    daemon: Cloudlet,
    executor: Cloudlet,
    vms: VmSchedule,
    now: float,
    commit_at: float | None = None,
) -> float:
    """Time from ``now`` until ``executor`` would hand the result back.

    A tentative probe: nothing is committed.  ``commit_at`` projects a
    commit at a later instant (used when pondering a delay) while still
    reading the current ready times.
    """
    effective = now if commit_at is None else commit_at
    start = max(effective, vms.earliest_ready())
    exec_time, comm = _placement_times(task, _placement_route(daemon, executor))
    return (start + exec_time + comm) - now


def commit_assignment(
    task: Task, daemon: Cloudlet, executor: Cloudlet, vms: VmSchedule, now: float
) -> tuple[float, float, int]:
    """Bind the task to the executor's earliest-ready VM.

    Returns (start, completion, vm_index); completion includes the
    communication charge for the placement.
    """
    exec_time, comm = _placement_times(task, _placement_route(daemon, executor))
    start, vm_index = vms.commit(now, exec_time)
    return start, start + exec_time + comm, vm_index


def schedule_delay(task: Task, delay: float, now: float, sequence: int) -> Event:
    """Wake-up event for a postponed task; only tolerant tasks may wait."""
    if task.task_class is not TaskClass.LATENCY_TOLERANT:
        raise SimulationError(f"task {task.id}: only latency-tolerant tasks can be delayed")
    if delay <= 0:
        raise SimulationError(f"task {task.id}: delay must be > 0, got {delay}")
    return Event(time=now + delay, sequence=sequence, kind=DELAY_EXPIRED, task_id=task.id)


class ClusterView:
    """Read-only probe interface the engine hands to a policy.

    Probes of non-daemon cloudlets can be answered with stale state
    (``probe_latency`` old); the daemon always sees its own live state.
    """

    __slots__ = ("now", "daemon_id", "_task", "_sim")

    def __init__(self, sim: "Simulation", task: Task, now: float):
        self.now = now
        self.daemon_id = task.daemon_id
        self._task = task
        self._sim = sim

    @property
    def cloudlet_ids(self) -> tuple[int, ...]:
        return self._sim.topology.ids

    def probe(self, cloudlet_id: int) -> ProbeResult:
        sim = self._sim
        now = self.now
        vms = sim.vm_schedules[cloudlet_id]
        if cloudlet_id == self.daemon_id or sim.probe_latency <= 0:
            ready = vms.earliest_ready()
        else:
            ready = vms.earliest_ready_asof(max(0.0, now - sim.probe_latency))
        exec_time, comm = _placement_times(self._task, sim.routes[self.daemon_id, cloudlet_id])
        return ProbeResult(cloudlet_id, max(now, ready) + exec_time + comm, ready <= now)

    def daemon_completion_if_delayed(self, delay: float) -> float:
        """Projected wall-clock daemon completion if committed ``delay`` from now."""
        sim = self._sim
        daemon_id = self.daemon_id
        start = max(self.now + delay, sim.vm_schedules[daemon_id].earliest_ready())
        exec_time, comm = _placement_times(self._task, sim.routes[daemon_id, daemon_id])
        return start + exec_time + comm


class Simulation:
    """One single-threaded simulation run over a fixed topology and policy."""

    def __init__(
        self,
        topology: EdgeCloud,
        scheduler,
        *,
        max_delays: int = 1000,
        probe_latency: float = 0.0,
    ):
        if len(topology) == 0:
            raise SimulationError("topology has no cloudlets")
        self.topology = topology
        self.scheduler = scheduler
        self.max_delays = max_delays
        self.probe_latency = probe_latency
        # only stale reads look back, and never further than the probe latency
        staleness = max(probe_latency, 0.0)
        self.vm_schedules: dict[int, VmSchedule] = {
            c.id: VmSchedule(c.vm_count, staleness=staleness) for c in topology
        }
        self.routes = _RouteCache(topology)
        self._allocations = {c.id: Allocation.cloudlet(c.id) for c in topology}
        self._cloud = Allocation.cloud()
        self._sequence = 0

    def _next_sequence(self) -> int:
        seq = self._sequence
        self._sequence += 1
        return seq

    def run(self, trace: Sequence[Task]) -> SimulationResult:
        self._validate_trace(trace)
        tasks = {t.id: t for t in trace}
        queue: list[Event] = []
        for task in trace:
            heapq.heappush(queue, Event(task.arrival_time, self._next_sequence(), ARRIVAL, task.id))

        records: dict[int, TaskRecord] = {}
        delays_taken: dict[int, int] = {t.id: 0 for t in trace}
        decisions: list[DecisionEntry] = []
        events: list[Event] = []
        clock = 0.0

        while queue:
            event = heapq.heappop(queue)
            if event.time < clock:
                raise SimulationError(
                    f"causality violation: event at {event.time} before clock {clock}"
                )
            clock = event.time
            events.append(event)
            task = tasks[event.task_id]
            if task.id in records:
                raise SimulationError(f"task {task.id} scheduled twice")
            decision = self.scheduler.decide(task, ClusterView(self, task, clock))
            decisions.append(DecisionEntry(clock, task.id, decision))
            self._apply(decision, task, clock, queue, records, delays_taken)

        ordered = [records[t.id] for t in trace]
        return SimulationResult(ordered, decisions, events, self.topology)

    def _validate_trace(self, trace: Sequence[Task]) -> None:
        last = -inf
        seen: set[int] = set()
        for task in trace:
            if task.arrival_time < last:
                raise SimulationError(
                    f"trace not sorted by arrival time at task {task.id}"
                )
            last = task.arrival_time
            if task.id in seen:
                raise SimulationError(f"duplicate task id {task.id} in trace")
            seen.add(task.id)
            if task.daemon_id not in self.vm_schedules:
                raise SimulationError(
                    f"task {task.id} names unknown daemon cloudlet {task.daemon_id}"
                )

    def _apply(self, decision, task, now, queue, records, delays_taken) -> None:
        if isinstance(decision, Assign):
            executor_id = decision.cloudlet_id
            try:
                route = self.routes[task.daemon_id, executor_id]
            except KeyError:
                raise SimulationError(
                    f"scheduler assigned task {task.id} to unknown cloudlet {executor_id}"
                ) from None
            exec_time, comm = _placement_times(task, route)
            start, _ = self.vm_schedules[executor_id].commit(now, exec_time)
            completion = start + exec_time + comm
            self._record(
                records, task, self._allocations[executor_id], now, start, completion,
                exec_time, delays_taken[task.id],
            )
        elif isinstance(decision, AssignCloud):
            daemon = self.topology.get(task.daemon_id)
            bd = completion_time_cloud(task, daemon.net)
            start = now
            completion = start + bd.exec + bd.comm
            self._record(
                records, task, self._cloud, now, start, completion,
                bd.exec, delays_taken[task.id],
            )
        elif isinstance(decision, Delay):
            delays_taken[task.id] += 1
            if delays_taken[task.id] > self.max_delays:
                raise SimulationError(
                    f"task {task.id} delayed more than max_delays={self.max_delays};"
                    " the bound check should have terminated this"
                )
            heapq.heappush(queue, schedule_delay(task, decision.duration, now,
                                                 self._next_sequence()))
        else:
            raise SimulationError(f"scheduler returned unknown decision {decision!r}")

    def _record(self, records, task, allocation, assign_time, start, completion,
                service_time, delays) -> None:
        turnaround = completion - task.arrival_time
        violated = None
        if task.task_class is TaskClass.LATENCY_TOLERANT:
            violated = turnaround > task.latency_bound
        records[task.id] = TaskRecord(
            task_id=task.id,
            task_class=task.task_class,
            daemon_id=task.daemon_id,
            allocation=allocation,
            arrival_time=task.arrival_time,
            assign_time=assign_time,
            start_time=start,
            completion_time=completion,
            turnaround=turnaround,
            service_time=service_time,
            speedup=task.mobile_exec_time / turnaround,
            delays_taken=delays,
            bound_violated=violated,
        )


def simulate(config, trace: Sequence[Task], scheduler, seed: int,
             topology: EdgeCloud | None = None) -> SimulationResult:
    """Run one simulation described by a config.

    ``scheduler`` is either a policy name token or a ready policy
    instance.  With a name, the policy RNG is derived from ``seed``;
    the topology, when not supplied, is drawn from ``seed`` as well, so
    the same seed compares policies on identical ground.
    """
    from .config import build_topology

    if topology is None:
        topology = build_topology(config, seed=seed)
    if isinstance(scheduler, str):
        scheduler = make_scheduler(
            scheduler,
            rng=new_rng(seed, "policy"),
            delay_quantum=config.resolve_delay_quantum(),
        )
    sim = Simulation(
        topology,
        scheduler,
        max_delays=config.max_delays,
        probe_latency=config.probe_latency_ms,
    )
    return sim.run(trace)
