"""Deterministic discrete-event simulation of an edge-cloud.

The engine advances a virtual clock over task arrivals and delay
wake-ups, the only moments a decision is made.  Arrivals are read from
the sorted trace in order and merged with a heap that holds only the
wake-ups; at an equal time the arrival goes first.  Each cloudlet keeps one
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
    Cloudlet,
    EdgeCloud,
    Route,
    Task,
    TaskClass,
    completion_time_cloud,
    placement_route,
    placement_times,
    speedup,
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

    def __init__(self, vm_count: int, staleness: float = inf):
        if vm_count < 1:
            raise ValueError("vm_count must be >= 1")
        self._heap: list[tuple[float, int]] = [(0.0, i) for i in range(vm_count)]
        heapq.heapify(self._heap)
        self._staleness = staleness
        self._log: deque[tuple[float, int, float]] = deque()
        self._last_commit = -inf
        self._horizon = -inf
        self._stale = [0.0] * vm_count
        self._stale_min = 0.0

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
        self._horizon = when
        log = self._log
        if log and log[0][0] <= when:
            self._fold(when)
        return self._stale_min

    def _fold(self, horizon: float) -> None:
        # the last commit per VM at or before the horizon wins
        log = self._log
        stale = self._stale
        while log and log[0][0] <= horizon:
            _, vm_index, ready = log.popleft()
            stale[vm_index] = ready
        self._stale_min = min(stale)

    def commit(self, now: float, exec_time: float) -> tuple[float, int]:
        """Occupy the earliest-ready VM; returns (start, vm_index)."""
        if now < self._last_commit:
            raise ValueError(f"commit at {now} before the previous commit at {self._last_commit}")
        self._last_commit = now
        ready, vm_index = heapq.heappop(self._heap)
        start = max(now, ready)
        new_ready = start + exec_time
        heapq.heappush(self._heap, (new_ready, vm_index))
        log = self._log
        log.append((now, vm_index, new_ready))
        horizon = now - self._staleness
        if horizon > self._horizon:
            self._horizon = horizon
        if log[0][0] <= horizon:
            self._fold(horizon)
        return start, vm_index


class TaskRecord(NamedTuple):
    """Final outcome of one task; the input to every metric."""

    task_id: int
    task_class: TaskClass
    daemon_id: int
    executor: int | None  # the cloudlet the task ran on; None for the cloud
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


class _RouteRow(dict):
    """executor_id -> :func:`placement_route` from one daemon, filled on first use.

    A missing redirect RTT raises at the first use of that pair and is
    not cached, so every later use raises again; an unknown executor
    raises ``KeyError``.
    """

    def __init__(self, topology: EdgeCloud, daemon: Cloudlet):
        super().__init__()
        self._topology = topology
        self._daemon = daemon

    def __missing__(self, executor_id: int) -> Route:
        route = placement_route(self._daemon, self._topology.get(executor_id))
        self[executor_id] = route
        return route


class ClusterView:
    """Read-only probe interface the engine hands to a policy.

    Probes of non-daemon cloudlets can be answered with stale state
    (``probe_latency`` old); the daemon always sees its own live state.
    A run moves one view from decision to decision, so a policy must not
    keep a view past ``decide``.
    """

    __slots__ = ("now", "daemon_id", "_profile", "_sim", "_horizon")

    def __init__(self, sim: "Simulation", task: Task, now: float):
        self._sim = sim
        self._move(task, now)

    def _move(self, task: Task, now: float) -> None:
        self.now = now
        self.daemon_id = task.daemon_id
        self._profile = task.profile
        latency = self._sim.probe_latency
        # the instant stale probes read; None when every probe reads live state
        self._horizon = None if latency <= 0 else max(0.0, now - latency)

    @property
    def cloudlet_ids(self) -> tuple[int, ...]:
        return self._sim.topology.ids

    def probe(self, cloudlet_id: int) -> ProbeResult:
        sim = self._sim
        now = self.now
        vms = sim.vm_schedules[cloudlet_id]
        if cloudlet_id == self.daemon_id or self._horizon is None:
            ready = vms.earliest_ready()
        else:
            ready = vms.earliest_ready_asof(self._horizon)
        exec_time, comm = placement_times(self._profile, sim.routes[self.daemon_id][cloudlet_id])
        return ProbeResult(cloudlet_id, max(now, ready) + exec_time + comm, ready <= now)

    def daemon_completion_if_delayed(self, delay: float) -> float:
        """Projected wall-clock daemon completion if committed ``delay`` from now."""
        sim = self._sim
        daemon_id = self.daemon_id
        start = max(self.now + delay, sim.vm_schedules[daemon_id].earliest_ready())
        exec_time, comm = placement_times(self._profile, sim.routes[daemon_id][daemon_id])
        return start + exec_time + comm


class Simulation:
    """One single-threaded simulation run over a fixed topology and policy.

    A run leaves its commits in the VM schedules, so an instance runs once.
    """

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
        # routes[daemon_id][executor_id]: one row per daemon
        self.routes = {c.id: _RouteRow(topology, c) for c in topology}
        self._ran = False

    def run(self, trace: Sequence[Task]) -> SimulationResult:
        if self._ran:
            raise SimulationError("a Simulation runs once; build a new one for another run")
        self._validate_trace(trace)
        self._ran = True
        tasks = {t.id: t for t in trace}
        # arrivals take sequences 0..n-1, below every wake-up's, so
        # at an equal time the next arrival goes before any wake-up
        self._sequence = len(trace)
        wakeups: list[Event] = []

        records: dict[int, TaskRecord] = {}
        delays_taken: dict[int, int] = dict.fromkeys(tasks, 0)
        decisions: list[DecisionEntry] = []
        events: list[Event] = []
        decide = self.scheduler.decide
        view = ClusterView(self, trace[0], 0.0) if trace else None  # moved per decision

        # a task has one pending event at a time (its arrival or its one
        # wake-up), so no task is decided after it was placed
        def step(event: Event, task: Task) -> None:
            now = event.time
            events.append(event)
            view._move(task, now)
            decision = decide(task, view)
            decisions.append(DecisionEntry(now, task.id, decision))
            self._apply(decision, task, now, wakeups, records, delays_taken)

        for sequence, task in enumerate(trace):
            arrival = task.arrival_time
            while wakeups and wakeups[0].time < arrival:
                event = heapq.heappop(wakeups)
                step(event, tasks[event.task_id])
            step(Event(arrival, sequence, ARRIVAL, task.id), task)
        while wakeups:
            event = heapq.heappop(wakeups)
            step(event, tasks[event.task_id])

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

    def _apply(self, decision, task, now, wakeups, records, delays_taken) -> None:
        profile = task.profile
        if isinstance(decision, Assign):
            executor_id = decision.cloudlet_id
            try:
                route = self.routes[task.daemon_id][executor_id]
            except KeyError:
                raise SimulationError(
                    f"scheduler assigned task {task.id} to unknown cloudlet {executor_id}"
                ) from None
            service_time, comm = placement_times(profile, route)
            start, _ = self.vm_schedules[executor_id].commit(now, service_time)
        elif isinstance(decision, AssignCloud):
            bd = completion_time_cloud(task, self.topology.get(task.daemon_id).net)
            start = now
            service_time, comm = bd.exec, bd.comm
            executor_id = None
        elif isinstance(decision, Delay):
            delays_taken[task.id] += 1
            if delays_taken[task.id] > self.max_delays:
                raise SimulationError(
                    f"task {task.id} delayed more than max_delays={self.max_delays};"
                    " the bound check should have terminated this"
                )
            if profile.task_class is not TaskClass.LATENCY_TOLERANT:
                raise SimulationError(f"task {task.id}: only latency-tolerant tasks can be delayed")
            delay = decision.duration
            if not 0 < delay < inf:
                raise SimulationError(f"task {task.id}: delay must be finite and > 0, got {delay}")
            heapq.heappush(wakeups, Event(now + delay, self._sequence, DELAY_EXPIRED, task.id))
            self._sequence += 1
            return
        else:
            raise SimulationError(f"scheduler returned unknown decision {decision!r}")
        completion = start + service_time + comm
        turnaround = completion - task.arrival_time
        try:
            gain = speedup(task, turnaround)
        except ValueError:  # the service is below half a float step of the arrival
            raise SimulationError(
                f"task {task.id}: turnaround rounds to 0 at arrival {task.arrival_time!r} ms;"
                " arrival times this large cannot resolve the task's service time") from None
        violated = None
        if profile.task_class is TaskClass.LATENCY_TOLERANT:
            violated = turnaround > profile.latency_bound
        records[task.id] = TaskRecord(
            task.id, profile.task_class, task.daemon_id, executor_id, task.arrival_time,
            now, start, completion, turnaround, service_time,
            gain, delays_taken[task.id], violated,
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
