"""Independent replay of a simulation, for cross-checking the engine.

Everything the engine does with heaps and event objects is redone here
with plain lists and linear scans, recomputing every start and
completion from first principles.  Policy objects are shared contract:
the oracle feeds them through its own probe view, so any engine bug in
event ordering, VM selection, waiting time, or probe staleness shows up
as a record mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from petrel.model import EdgeCloud, Task
from petrel.schedulers import Assign, AssignCloud, Delay, ProbeResult


@dataclass(frozen=True)
class OracleRecord:
    task_id: int
    executor: str
    assign_time: float
    start_time: float
    completion_time: float
    delays_taken: int


class _OracleVms:
    def __init__(self, vm_count: int):
        self.ready = [0.0] * vm_count
        self.history = [[(-inf, 0.0)] for _ in range(vm_count)]

    def fresh_earliest(self) -> float:
        return min(self.ready)

    def earliest_asof(self, when: float) -> float:
        best = inf
        for entries in self.history:
            value = 0.0
            for t, ready in entries:
                if t <= when:
                    value = ready
                else:
                    break
            best = min(best, value)
        return best

    def commit(self, now: float, exec_time: float) -> float:
        index = min(range(len(self.ready)), key=lambda i: (self.ready[i], i))
        start = max(now, self.ready[index])
        self.ready[index] = start + exec_time
        self.history[index].append((now, self.ready[index]))
        return start


def _exec_time(task: Task, cloudlet) -> float:
    return task.profile.base_service_time / cloudlet.speed_factor


def _comm_daemon(task: Task, daemon) -> float:
    return task.profile.data_volume / daemon.net.cloudlet_bandwidth + daemon.net.daemon_rtt


def _comm_remote(task: Task, daemon, executor) -> float:
    return (
        task.profile.data_volume / executor.net.cloudlet_bandwidth
        + daemon.net.daemon_rtt
        + daemon.net.rtt_to(executor.id)
    )


def _comm_cloud(task: Task, daemon) -> float:
    return task.profile.data_volume / daemon.net.cloud_bandwidth + daemon.net.cloud_rtt


class _OracleView:
    def __init__(self, oracle: "ReplayOracle", task: Task, now: float):
        self._oracle = oracle
        self._task = task
        self.now = now
        self.daemon_id = task.daemon_id

    @property
    def cloudlet_ids(self):
        return self._oracle.topology.ids

    def probe(self, cloudlet_id: int):
        oracle = self._oracle
        task = self._task
        daemon = oracle.topology.get(task.daemon_id)
        executor = oracle.topology.get(cloudlet_id)
        vms = oracle.vms[cloudlet_id]
        if cloudlet_id == task.daemon_id or oracle.probe_latency <= 0:
            ready = vms.fresh_earliest()
        else:
            ready = vms.earliest_asof(max(0.0, self.now - oracle.probe_latency))
        start = max(self.now, ready)
        exec_time = _exec_time(task, executor)
        if cloudlet_id == task.daemon_id:
            comm = _comm_daemon(task, daemon)
        else:
            comm = _comm_remote(task, daemon, executor)
        return ProbeResult(
            cloudlet_id=cloudlet_id,
            expected_completion=start + exec_time + comm,
            has_idle_vm=ready <= self.now,
        )

    def has_idle_vm(self, cloudlet_id: int) -> bool:
        return self.probe(cloudlet_id).has_idle_vm

    def least_completion(self, cloudlet_ids):
        # the first strict minimum over this view's own probes
        best_id = best = None
        for cloudlet_id in cloudlet_ids:
            done = self.probe(cloudlet_id).expected_completion
            if best_id is None or done < best:
                best, best_id = done, cloudlet_id
        return best_id

    def daemon_completion_if_delayed(self, delay: float) -> float:
        oracle = self._oracle
        task = self._task
        daemon = oracle.topology.get(task.daemon_id)
        vms = oracle.vms[task.daemon_id]
        start = max(self.now + delay, vms.fresh_earliest())
        return start + _exec_time(task, daemon) + _comm_daemon(task, daemon)


class ReplayOracle:
    def __init__(self, topology: EdgeCloud, probe_latency: float = 0.0):
        self.topology = topology
        self.probe_latency = probe_latency
        self.vms = {c.id: _OracleVms(c.vm_count) for c in topology}

    def run(self, trace, scheduler) -> list[OracleRecord]:
        pending = [[task.arrival_time, i, task] for i, task in enumerate(trace)]
        next_seq = len(trace)
        delays = {task.id: 0 for task in trace}
        done: dict[int, OracleRecord] = {}
        while pending:
            pending.sort(key=lambda entry: (entry[0], entry[1]))
            now, _, task = pending.pop(0)
            decision = scheduler.decide(task, _OracleView(self, task, now))
            if isinstance(decision, Assign):
                daemon = self.topology.get(task.daemon_id)
                executor = self.topology.get(decision.cloudlet_id)
                exec_time = _exec_time(task, executor)
                if executor.id == daemon.id:
                    comm = _comm_daemon(task, daemon)
                else:
                    comm = _comm_remote(task, daemon, executor)
                start = self.vms[executor.id].commit(now, exec_time)
                done[task.id] = OracleRecord(
                    task_id=task.id,
                    executor=str(executor.id),
                    assign_time=now,
                    start_time=start,
                    completion_time=start + exec_time + comm,
                    delays_taken=delays[task.id],
                )
                next_seq += 1
            elif isinstance(decision, AssignCloud):
                daemon = self.topology.get(task.daemon_id)
                completion = now + task.profile.cloud_exec_time + _comm_cloud(task, daemon)
                done[task.id] = OracleRecord(
                    task_id=task.id,
                    executor="cloud",
                    assign_time=now,
                    start_time=now,
                    completion_time=completion,
                    delays_taken=delays[task.id],
                )
                next_seq += 1
            elif isinstance(decision, Delay):
                delays[task.id] += 1
                pending.append([now + decision.duration, next_seq, task])
                next_seq += 1
            else:
                raise AssertionError(f"unexpected decision {decision!r}")
        return [done[task.id] for task in trace]
