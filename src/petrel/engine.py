"""Deterministic discrete-event simulation of an edge-cloud.

The engine advances a virtual clock over task arrivals and delay
wake-ups, the only moments a decision is made.  One loop makes every
decision: each turn takes the next arrival from the sorted trace, or the
heap's earliest wake-up if it comes strictly before that arrival (so at
an equal time the arrival goes first), asks the policy, and applies the
decision in the same turn.  A wake-up carries its task's trace index,
the delays the task has taken and the cost row looked up at its arrival,
and every decision is logged once, with what prompted it.
:class:`Simulation` owns every cloudlet's VM state: one ready time per
VM in a min heap.  Committing a task replaces the earliest VM's ready
time, starting the task at ``max(now, ready)``.  A task's completion is
fixed at commit, so completions are recorded, not queued as events.
Communication is charged to the task's completion, not to VM occupancy.

Reads of cloudlets other than the task's daemon come from one run-wide
commit log: each commit logs its cloudlet's new earliest ready time, and
commits come in time order across the run, so before a decision the
run folds the log up to the horizon ``max(now - probe_latency, 0)``,
once a logged commit has reached it, and such a read is a lookup.  At
latency 0 the horizon is ``now``, so the fold gives the live state.
The run is the one place that folds; :class:`ClusterView` only reads.

Two runs with the same config, trace, policy, and seed produce
bit-identical records.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import inf, isfinite
from typing import NamedTuple, Sequence

from .model import EdgeCloud, Task, TaskClass, in_range, speedup
from .schedulers import (
    Assign,
    AssignCloud,
    Delay,
    ProbeResult,
    SAMPLING_SCHEDULERS,
    SchedulingDecision,
    make_scheduler,
)
from .seeding import new_rng


class SimulationError(RuntimeError):
    """A run could not proceed (a bad trace or a bad decision)."""


ARRIVAL = "arrival"
DELAY_EXPIRED = "delay-expired"

# DecisionEntry, TaskRecord and ProbeResult are built per decision or probe
# as tuple.__new__(Cls, (...)): a NamedTuple's generated __new__ is a Python-level
# call that checks nothing, and a measurable share of a run (shape pinned in tests).


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
    """One scheduler invocation, its outcome and what prompted it, for post-run audits."""

    time: float
    task_id: int
    decision: SchedulingDecision
    kind: str  # ARRIVAL or DELAY_EXPIRED


@dataclass
class SimulationResult:
    """A run's records, in trace order, and its one log, in decision order."""

    records: list[TaskRecord]
    decisions: list[DecisionEntry]
    topology: EdgeCloud

    @property
    def events(self) -> list[DecisionEntry]:
        """The decision log: every arrival and wake-up is decided exactly once."""
        return self.decisions


class ClusterView:
    """Read-only probe interface the engine hands to a policy.

    A policy reads ``now``, ``daemon_id`` and ``cloudlet_ids`` and calls
    four read methods: :meth:`probe` for one cloudlet's expected
    completion, :meth:`has_idle_vm` for its idle flag alone,
    :meth:`least_completion` for the first of several ids whose expected
    completion is least, and :meth:`daemon_completion_if_delayed`.  A
    wake-up carries the cost row the run looked up at the task's arrival.
    The daemon's ready time is its live heap head in ``sim.heaps``.  Reads
    of non-daemon cloudlets come from ``sim.stale_ready``, which the run
    folds before each decision: per cloudlet, the earliest ready time
    logged by its last commit at or before the horizon
    ``max(now - probe_latency, 0)``, else 0.0.  At latency 0 that is every
    commit so far, so these reads are live.  Building a view folds
    nothing, so a view built outside the run reads stale state as the
    run last folded it.  A run builds one view and positions it at each
    decision itself, so a policy must not keep a view past ``decide``.
    """

    __slots__ = ("now", "daemon_id", "cloudlet_ids", "_heaps", "_stale_ready", "_costs")

    def __init__(self, sim: "Simulation", task: Task, now: float):
        self.cloudlet_ids: tuple[int, ...] = sim.topology.ids  # fixed for the run
        self._heaps = sim.heaps
        self._stale_ready = sim.stale_ready
        self.now = now
        self.daemon_id = task.daemon_id
        self._costs = sim.topology.cost_row(task.daemon_id, task.profile)  # (exec, comm) per executor

    def probe(self, cloudlet_id: int) -> ProbeResult:
        now = self.now
        if cloudlet_id == self.daemon_id:
            ready = self._heaps[cloudlet_id][0]
        else:
            ready = self._stale_ready[cloudlet_id]
        exec_time, comm = self._costs[cloudlet_id]
        start = ready if ready > now else now
        return tuple.__new__(ProbeResult, (cloudlet_id, start + exec_time + comm, ready <= now))

    def has_idle_vm(self, cloudlet_id: int) -> bool:
        """:meth:`probe`'s ``has_idle_vm``, read as it reads it, without pricing the task."""
        if cloudlet_id == self.daemon_id:
            ready = self._heaps[cloudlet_id][0]
        else:
            ready = self._stale_ready[cloudlet_id]
        return ready <= self.now

    def least_completion(self, cloudlet_ids: Sequence[int]) -> int:
        """The first id in the non-empty ``cloudlet_ids`` whose expected completion,
        read as :meth:`probe` reads it, is least.  An idle daemon first in the order that
        its cost row's :meth:`~petrel.model._CostRow.floor` shows no peer can undercut
        is returned, and no other id is read."""
        now, daemon_id, heaps, costs = self.now, self.daemon_id, self._heaps, self._costs
        if cloudlet_ids[0] == daemon_id and heaps[daemon_id][0] <= now:
            exec_time, comm = costs[daemon_id]
            floor_exec, floor_comm = costs.floor()
            if now + exec_time + comm <= now + floor_exec + floor_comm:
                return daemon_id  # no peer ends before the floor, so the daemon is the first least
        stale_ready = self._stale_ready
        best_id = best = None
        for cloudlet_id in cloudlet_ids:
            if cloudlet_id == daemon_id:
                ready = heaps[cloudlet_id][0]
            else:
                ready = stale_ready[cloudlet_id]
            exec_time, comm = costs[cloudlet_id]
            done = (ready if ready > now else now) + exec_time + comm
            if best_id is None or done < best:  # the first id seeds best, even at inf
                best, best_id = done, cloudlet_id
        return best_id

    def daemon_completion_if_delayed(self, delay: float) -> float:
        """Projected wall-clock daemon completion if committed ``delay`` from now."""
        daemon_id = self.daemon_id
        earliest = self.now + delay
        ready = self._heaps[daemon_id][0]
        start = ready if ready > earliest else earliest
        exec_time, comm = self._costs[daemon_id]
        return start + exec_time + comm


class Simulation:
    """One single-threaded simulation run over a fixed topology and policy.

    The simulation owns every cloudlet's VM state.  ``heaps[cid]`` is a
    min heap of ready times, one per VM; a cloudlet's VMs are alike, so
    none is named.  :meth:`commit` is the one writer of ``commit_log``,
    the run-wide log of ``(commit_time, cloudlet_id, earliest_ready)``,
    where ``earliest_ready`` is the cloudlet's heap head just after the
    commit.  Before each decision, :meth:`run` computes the read horizon
    and calls :meth:`_fold`, which sets ``stale_ready`` from each entry at
    or before it; nothing else folds.  A run leaves its commits behind,
    so an instance runs once.
    """

    def __init__(self, topology: EdgeCloud, scheduler, *, probe_latency: float = 0.0):
        if len(topology) == 0:
            raise SimulationError("topology has no cloudlets")
        if not in_range(probe_latency, ">= 0"):
            raise SimulationError(f"probe_latency must be finite and >= 0, got {probe_latency!r}")
        self.topology = topology
        self.scheduler = scheduler
        self.probe_latency = probe_latency
        self.heaps = {c.id: [0.0] * c.vm_count for c in topology}
        self.stale_ready = dict.fromkeys(self.heaps, 0.0)
        self.commit_log: deque = deque()  # run-wide, folded per decision
        self.last_commit = -inf
        self._ran = False

    def commit(self, cloudlet_id: int, now: float, exec_time: float) -> float:
        """Occupy the cloudlet's earliest-ready VM for ``exec_time``; returns the start.

        Commits must come in time order across the run: the fold stops at
        the first logged commit past its horizon, and a folded commit is
        gone from the log.
        """
        if now < self.last_commit:
            raise ValueError(f"commit at {now} before the previous commit at {self.last_commit}")
        heap = self.heaps[cloudlet_id]
        self.last_commit = now
        ready = heap[0]
        start = ready if ready > now else now
        heapq.heapreplace(heap, start + exec_time)
        self.commit_log.append((now, cloudlet_id, heap[0]))
        return start

    def _fold(self, horizon: float) -> None:
        """Apply every logged commit at or before ``horizon``."""
        # commits fold in log order, so a cloudlet's last one at or before the horizon wins
        log, stale_ready = self.commit_log, self.stale_ready
        while log and log[0][0] <= horizon:
            _, cloudlet_id, ready = log.popleft()
            stale_ready[cloudlet_id] = ready

    def run(self, trace: Sequence[Task]) -> SimulationResult:
        if self._ran:
            raise SimulationError("a Simulation runs once; build a new one for another run")
        self._check_trace(trace)
        self._ran = True
        count = len(trace)
        records: list = [None] * count  # TaskRecords by trace index
        decisions: list[DecisionEntry] = []
        # (time, sequence, trace index, delays taken, cost row); the unique sequence keeps
        # tied wake-ups in push order and comparisons off the row; a wake-up goes first
        # only when it is strictly earlier than the next arrival
        wakeups: list[tuple[float, int, int, int, object]] = []
        sequence = arrived = 0
        decide = self.scheduler.decide
        view = ClusterView(self, trace[0], 0.0) if trace else None  # positioned per decision
        log, fold, latency = self.commit_log, self._fold, self.probe_latency
        commit, cost_row = self.commit, self.topology.cost_row
        heappush, heappop, new = heapq.heappush, heapq.heappop, tuple.__new__
        tolerant = TaskClass.LATENCY_TOLERANT

        # a task has one pending entry at a time (its arrival or its one
        # wake-up), so no task is decided after it was placed
        while True:
            if wakeups and (arrived == count or wakeups[0][0] < trace[arrived].arrival_time):
                now, _, index, delays, costs = heappop(wakeups)
                task = trace[index]
                kind = DELAY_EXPIRED
            elif arrived < count:
                task = trace[arrived]
                now, index, delays, kind = task.arrival_time, arrived, 0, ARRIVAL
                costs = cost_row(task.daemon_id, task.profile)
                arrived += 1
            else:
                break
            task_id, arrival, daemon_id, profile = task
            # what the view's constructor binds, then the one fold of the run,
            # skipped while no logged commit has reached the horizon
            view.now = now
            view.daemon_id = daemon_id
            view._costs = costs
            horizon = now - latency if now > latency else 0.0
            if log and log[0][0] <= horizon:
                fold(horizon)
            decision = decide(task, view)
            decisions.append(new(DecisionEntry, (now, task_id, decision, kind)))
            if isinstance(decision, Assign):
                executor_id = decision.cloudlet_id
                try:
                    service_time, comm = costs[executor_id]
                except KeyError:
                    raise SimulationError(
                        f"scheduler assigned task {task_id} to unknown cloudlet {executor_id}"
                    ) from None
                start = commit(executor_id, now, service_time)
            elif isinstance(decision, AssignCloud):
                service_time, comm = costs.cloud
                start = now
                executor_id = None
            elif isinstance(decision, Delay):
                if profile.task_class is not tolerant:
                    raise SimulationError(f"task {task_id}: only latency-tolerant tasks can be delayed")
                # a wake-up lands strictly after now and strictly before the deadline
                # (Task.deadline's sum), so a task is decided finitely often
                wake, deadline = now + decision.duration, arrival + profile.latency_bound
                if not now < wake < deadline:
                    raise SimulationError(
                        f"task {task_id}: a delay of {decision.duration} ms at {now} ms must end"
                        f" strictly after now and before the deadline {deadline} ms")
                heappush(wakeups, (wake, sequence, index, delays + 1, costs))
                sequence += 1
                continue
            else:
                raise SimulationError(f"scheduler returned unknown decision {decision!r}")
            completion = start + service_time + comm
            if not isfinite(completion):
                raise SimulationError(f"task {task_id}: completion time overflows the float range"
                                      f" (arrival {arrival!r} ms)")
            turnaround = completion - arrival
            try:
                gain = speedup(task, turnaround)
            except ValueError:  # the service is below half a float step of the arrival
                raise SimulationError(
                    f"task {task_id}: turnaround rounds to 0 at arrival {arrival!r} ms;"
                    " arrival times this large cannot resolve the task's service time") from None
            violated = None
            if profile.task_class is tolerant:
                violated = turnaround > profile.latency_bound
            records[index] = new(TaskRecord, (
                task_id, profile.task_class, daemon_id, executor_id, arrival,
                now, start, completion, turnaround, service_time,
                gain, delays, violated,
            ))

        return SimulationResult(records, decisions, self.topology)

    def _check_trace(self, trace: Sequence[Task]) -> None:
        """Reject an unsorted trace, a repeated task id and an unknown daemon."""
        seen: set[int] = set()
        last = -inf
        for task in trace:
            if task.arrival_time < last:
                raise SimulationError(f"trace not sorted by arrival time at task {task.id}")
            last = task.arrival_time
            if task.id in seen:
                raise SimulationError(f"duplicate task id {task.id} in trace")
            seen.add(task.id)
            if task.daemon_id not in self.heaps:
                raise SimulationError(f"task {task.id} names unknown daemon cloudlet {task.daemon_id}")


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
        # the other policies draw nothing, so only a sampling policy gets a stream
        scheduler = make_scheduler(
            scheduler,
            rng=new_rng(seed, "policy") if scheduler in SAMPLING_SCHEDULERS else None,
            delay_quantum=config.resolve_delay_quantum(),
        )
    return Simulation(topology, scheduler, probe_latency=config.probe_latency_ms).run(trace)
