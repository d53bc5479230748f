"""Scheduling policies.

Every policy answers one question per task: run it on some cloudlet, on
the cloud, or try again later.  Policies see the cluster through a probe
view supplied by the engine (``now``, the cloudlet ids, and expected
completion probes); they keep no state beyond a seeded RNG and small
cursors, so replaying the same observations reproduces the decisions.

Policy names, as accepted on the command line:

    daa          adaptive two-choice scheduling with delay scheduling
    daemon-only  keep every task on its daemon cloudlet
    round-robin  cycle the full cloudlet list, one cursor per daemon
    greedy       probe everything, take the earliest expected completion
    two-choices  probe two random non-daemon cloudlets, take the better
    cloud-only   send everything to the cloud
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf
from operator import itemgetter
from typing import Callable, NamedTuple, Union

import numpy as np

from .model import Task, TaskClass
from .seeding import bounded_draws


@dataclass(frozen=True)
class Assign:
    """Place the task on the given cloudlet now."""

    cloudlet_id: int


@dataclass(frozen=True)
class AssignCloud:
    """Send the task to the cloud."""


@dataclass(frozen=True)
class Delay:
    """Postpone the decision; the scheduler runs again after ``duration``."""

    duration: float


SchedulingDecision = Union[Assign, AssignCloud, Delay]


# decisions are frozen, so one object per value serves every policy and run
_assign = lru_cache(maxsize=1024)(Assign)
_delay = lru_cache(maxsize=64)(Delay)
_CLOUD = AssignCloud()


class ProbeResult(NamedTuple):
    """Answer to "when would this cloudlet finish the task?"."""

    cloudlet_id: int
    expected_completion: float  # wall-clock timestamp
    has_idle_vm: bool


@lru_cache(maxsize=1024)
def _peers(cloudlet_ids: tuple[int, ...], daemon_id: int) -> tuple[int, ...]:
    """The cloudlets other than the daemon, in id-tuple order, kept per daemon."""
    return tuple(c for c in cloudlet_ids if c != daemon_id)


def _pick_two(others: tuple[int, ...], below: Callable[[int], int]) -> tuple[int, ...]:
    """Floyd's algorithm for two of ``others`` and a shuffle; ``below(n)`` draws ``integers(0, n)``."""
    n = len(others)
    if not n:
        raise ValueError(
            "sampling needs at least one non-daemon cloudlet; add cloudlets to the topology"
        )
    if n == 1:
        return (others[0],)
    first = below(n - 1)
    second = below(n)
    if second == first:
        second = n - 1
    if below(2):
        return (others[first], others[second])
    return (others[second], others[first])


# least loaded first, by (expected_completion, cloudlet_id): ties go to the lower id
_COMPLETION_THEN_ID = itemgetter(1, 0)


def _best_of_two(view, below: Callable[[int], int]) -> ProbeResult:
    """Probe two sampled non-daemon cloudlets, in draw order, and return the least loaded."""
    pair = _pick_two(_peers(view.cloudlet_ids, view.daemon_id), below)
    return min([view.probe(c) for c in pair], key=_COMPLETION_THEN_ID)


class DaaScheduler:
    """Two-choice sampling plus class-aware placement and delay scheduling."""

    name = "daa"

    def __init__(self, rng: np.random.Generator, delay_quantum: float):
        if not 0 < delay_quantum < inf:
            raise ValueError(f"delay_quantum must be finite and > 0, got {delay_quantum}")
        self._below = bounded_draws(rng)  # owns rng: draws are read ahead
        self.delay_quantum = delay_quantum

    def decide(self, task: Task, view) -> SchedulingDecision:
        """An idle daemon VM always wins, before anything is drawn.

        Otherwise the better of two sampled cloudlets becomes the
        candidate: sensitive tasks go wherever finishes first, tolerant
        tasks take an idle candidate VM if there is one and otherwise wait
        a quantum on the daemon, unless even the delayed daemon projection,
        computed only on that branch, would already overrun their bound.
        """
        daemon_id = view.daemon_id
        daemon_probe = view.probe(daemon_id)
        if daemon_probe.has_idle_vm:
            return _assign(daemon_id)
        candidate = _best_of_two(view, self._below)
        if task.profile.task_class is TaskClass.LATENCY_SENSITIVE:
            if candidate.expected_completion < daemon_probe.expected_completion:
                return _assign(candidate.cloudlet_id)
            return _assign(daemon_id)
        if candidate.has_idle_vm:
            return _assign(candidate.cloudlet_id)
        if view.daemon_completion_if_delayed(self.delay_quantum) >= task.deadline:
            return _assign(daemon_id)  # waiting would overrun the bound: settle on the daemon
        return _delay(self.delay_quantum)


class DaemonOnlyScheduler:
    """No load balancing: every task runs on its daemon cloudlet."""

    name = "daemon-only"

    def decide(self, task: Task, view) -> SchedulingDecision:
        return _assign(view.daemon_id)


class RoundRobinScheduler:
    """Cycle over all cloudlets, one independent cursor per daemon."""

    name = "round-robin"

    def __init__(self):
        self._cursors: dict[int, int] = {}

    def decide(self, task: Task, view) -> SchedulingDecision:
        ids = view.cloudlet_ids
        cursor = self._cursors.get(view.daemon_id, 0)
        self._cursors[view.daemon_id] = (cursor + 1) % len(ids)
        return _assign(ids[cursor])


class GreedyScheduler:
    """Probe every cloudlet and take the earliest expected completion."""

    name = "greedy"

    def decide(self, task: Task, view) -> SchedulingDecision:
        # earliest expected completion; ties prefer the daemon, then the lower id
        daemon_id = best_id = view.daemon_id
        probe = view.probe
        best = probe(daemon_id).expected_completion
        for c in view.cloudlet_ids:
            if c != daemon_id:
                done = probe(c).expected_completion
                if done < best or (done == best and best_id != daemon_id and c < best_id):
                    best, best_id = done, c
        return _assign(best_id)


class TwoChoicesScheduler:
    """Classic two-choice balancing; class-blind and never delays."""

    name = "two-choices"

    def __init__(self, rng: np.random.Generator):
        self._below = bounded_draws(rng)  # owns rng: draws are read ahead

    def decide(self, task: Task, view) -> SchedulingDecision:
        return _assign(_best_of_two(view, self._below).cloudlet_id)


class CloudOnlyScheduler:
    """Reference policy: the cloud takes everything, no queueing at all."""

    name = "cloud-only"

    def decide(self, task: Task, view) -> SchedulingDecision:
        return _CLOUD


SCHEDULER_NAMES = ("daa", "daemon-only", "round-robin", "greedy", "two-choices", "cloud-only")

# policies that sample non-daemon cloudlets; they need at least two cloudlets
SAMPLING_SCHEDULERS = ("daa", "two-choices")


def make_scheduler(name: str, *, rng: np.random.Generator | None = None,
                   delay_quantum: float | None = None):
    """Build a policy instance from its command-line token."""
    if name == "daa":
        if rng is None or delay_quantum is None:
            raise ValueError("daa needs an rng and a delay quantum")
        return DaaScheduler(rng, delay_quantum)
    if name == "daemon-only":
        return DaemonOnlyScheduler()
    if name == "round-robin":
        return RoundRobinScheduler()
    if name == "greedy":
        return GreedyScheduler()
    if name == "two-choices":
        if rng is None:
            raise ValueError("two-choices needs an rng")
        return TwoChoicesScheduler(rng)
    if name == "cloud-only":
        return CloudOnlyScheduler()
    raise ValueError(f"unknown scheduler {name!r}; choose one of {', '.join(SCHEDULER_NAMES)}")
