"""Evaluation metrics over finished runs.

All functions are pure and permutation-invariant over the record list.
The weighted turnaround of a task divides its turnaround by the
execution time on the platform that actually ran it, so 1.0 is the
floor: a task served instantly with no waiting and no transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import TaskRecord
from .model import EdgeCloud


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view of one simulation run."""

    task_count: int
    awt: float
    avg_speedup: float
    makespan_min: float
    makespan_max: float
    makespan_avg: float
    bound_violations: int
    per_cloudlet_makespan: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.makespan_min <= self.makespan_avg <= self.makespan_max:
            raise ValueError("makespan ordering violated: min <= avg <= max")


def awt(records: Sequence[TaskRecord]) -> float:
    """Mean weighted turnaround (turnaround / service time)."""
    if not records:
        raise ValueError("awt of an empty record list")
    total = 0.0
    for r in records:
        if r.service_time <= 0:
            raise ValueError(f"task {r.task_id} has non-positive service time")
        total += r.turnaround / r.service_time
    return total / len(records)


def average_speedup(records: Sequence[TaskRecord]) -> float:
    if not records:
        raise ValueError("average speedup of an empty record list")
    return sum(r.speedup for r in records) / len(records)


def _cloudlet_ids(cloudlets: EdgeCloud | Iterable[int]) -> tuple[int, ...]:
    if isinstance(cloudlets, EdgeCloud):
        return cloudlets.ids
    return tuple(cloudlets)


def makespans(
    records: Sequence[TaskRecord], cloudlets: EdgeCloud | Iterable[int]
) -> tuple[float, float, float, dict[int, float]]:
    """(min, max, avg, per-cloudlet) time of last completion per cloudlet.

    Every cloudlet in the topology contributes, idle ones as 0.  Tasks
    run on the cloud have no cloudlet and are left out here (they still
    count toward awt and speedup).
    """
    per: dict[int, float] = {cid: 0.0 for cid in _cloudlet_ids(cloudlets)}
    if not per:
        raise ValueError("makespans over an empty cloudlet set")
    for r in records:
        cid = r.executor
        if cid is None:
            continue
        if cid not in per:
            raise ValueError(f"task {r.task_id} ran on unknown cloudlet {cid}")
        if r.completion_time > per[cid]:
            per[cid] = r.completion_time
    values = list(per.values())
    return min(values), max(values), sum(values) / len(values), per


def summarize(records: Sequence[TaskRecord], cloudlets: EdgeCloud | Iterable[int]) -> RunSummary:
    """Roll one run's records up into a RunSummary."""
    mk_min, mk_max, mk_avg, per = makespans(records, cloudlets)
    violations = sum(1 for r in records if r.bound_violated is True)
    return RunSummary(
        task_count=len(records),
        awt=awt(records),
        avg_speedup=average_speedup(records),
        makespan_min=mk_min,
        makespan_max=mk_max,
        makespan_avg=mk_avg,
        bound_violations=violations,
        per_cloudlet_makespan=per,
    )
