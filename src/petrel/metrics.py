"""Evaluation metrics over finished runs.

:func:`summarize` is pure and, up to the rounding of its sums,
permutation-invariant over the record list.  The weighted turnaround
of a task divides its turnaround by the execution time on the platform
that actually ran it, so 1.0 is the floor: a task served instantly
with no waiting and no transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def summarize(records: Sequence[TaskRecord], topology: EdgeCloud) -> RunSummary:
    """Roll one run's records up into a RunSummary in one pass, adding left to right
    so that every Python gives the same bits.  Every cloudlet's last completion is
    a makespan, an idle one's 0; tasks run on the cloud count toward awt and speedup only."""
    per: dict[int, float] = dict.fromkeys(topology.ids, 0.0)
    if not per:
        raise ValueError("makespans over an empty cloudlet set")
    if not records:
        raise ValueError("awt of an empty record list")
    weighted = gains = 0.0
    violations = 0
    for (task_id, _, _, cid, _, _, _, completion, turnaround, service, gain, _,
         violated) in records:
        if cid is not None:
            last = per.get(cid)
            if last is None:
                raise ValueError(f"task {task_id} ran on unknown cloudlet {cid}")
            if completion > last:
                per[cid] = completion
        if service <= 0:
            raise ValueError(f"task {task_id} has non-positive service time")
        weighted += turnaround / service
        gains += gain
        if violated is True:
            violations += 1
    total = 0.0
    for makespan in per.values():
        total += makespan
    low, high = min(per.values()), max(per.values())
    count = len(records)
    return RunSummary(
        task_count=count,
        awt=weighted / count,
        avg_speedup=gains / count,
        makespan_min=low,
        makespan_max=high,
        # a rounded or overflowed sum can put the mean outside the makespans, even equal ones
        makespan_avg=min(max(total / len(per), low), high),
        bound_violations=violations,
        per_cloudlet_makespan=per,
    )
