"""Scheduling policies.

Every policy answers one question per task: run it on some cloudlet, on
the cloud, or try again later.  Policies see the cluster through a probe
view supplied by the engine (``now``, the cloudlet ids, and reads of
expected completions); they keep no state beyond a seeded RNG and small
cursors, so replaying the same observations reproduces the decisions.
Every "which finishes first?" goes through the view's
``least_completion``, which takes the first least id in the order given,
so a policy states its tie rule by the order it passes.

Policy names, as accepted on the command line:

    daa          adaptive two-choice scheduling with delay scheduling
    daemon-only  keep every task on its daemon cloudlet
    round-robin  cycle the full cloudlet list, one cursor per daemon
    greedy       read every cloudlet, take the earliest expected completion
    two-choices  sample two non-daemon cloudlets, take the earlier completion
    cloud-only   send everything to the cloud
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np

from .model import Task, TaskClass, in_range
from .seeding import uint32s


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


def _sampler(next_uint32: Callable[[], int]) -> Callable[[object], tuple[int, ...]]:
    """``sample_pair(view)``: the ids of two sampled non-daemon cloudlets, lower id first.

    The pair is ``Generator.choice(len(peers), 2, replace=False)``, draw for
    draw: Floyd's ``integers(0, n - 1)`` (nothing is drawn when n == 2) and
    ``integers(0, n)``, then the shuffle's ``integers(0, 2)``, whose word is
    drawn although id order replaces the shuffle.  Each is numpy's Lemire
    draw ("Fast Random Integer Generation in an Interval", ACM TOMACS 2019)
    on ``next_uint32`` words.  A single peer is returned alone, without a draw.
    """

    def redraw(m: int, n: int) -> int:
        """Lemire's rare branch: redraw while the low half is below ``2**32 % n``."""
        threshold = 0x100000000 % n
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32() * n
        return m >> 32

    def sample_pair(view) -> tuple[int, ...]:
        peers = _peers(view.cloudlet_ids, view.daemon_id)
        n = len(peers)
        if n < 2:
            if n:
                return peers
            raise ValueError(
                "sampling needs at least one non-daemon cloudlet; add cloudlets to the topology"
            )
        first = 0
        if n > 2:
            m = next_uint32() * (n - 1)
            first = m >> 32 if m & 0xFFFFFFFF >= n - 1 else redraw(m, n - 1)
        m = next_uint32() * n
        second = m >> 32 if m & 0xFFFFFFFF >= n else redraw(m, n)
        if second == first:
            second = n - 1
        next_uint32()  # the shuffle's integers(0, 2): a power of two, so Lemire never redraws
        a, b = peers[first], peers[second]
        return (a, b) if a < b else (b, a)  # so ties on completion go to the lower id

    return sample_pair


class DaaScheduler:
    """Two-choice sampling plus class-aware placement and delay scheduling."""

    name = "daa"

    def __init__(self, rng: np.random.Generator, delay_quantum: float):
        if not in_range(delay_quantum, "> 0"):
            raise ValueError(f"delay_quantum must be finite and > 0, got {delay_quantum}")
        self._sample_pair = _sampler(uint32s(rng))  # owns rng: words are read ahead
        self.delay_quantum = delay_quantum

    def decide(self, task: Task, view) -> SchedulingDecision:
        """An idle daemon VM always wins, before anything is drawn.

        Otherwise two cloudlets are sampled: sensitive tasks go wherever
        finishes first among the daemon and the pair, the daemon winning
        ties; tolerant tasks take the pair's earlier finisher if it has an
        idle VM and otherwise wait a quantum on the daemon, unless even the
        delayed daemon projection, computed only on that branch, would
        already overrun their bound.
        """
        daemon_id = view.daemon_id
        if view.has_idle_vm(daemon_id):
            return _assign(daemon_id)
        pair = self._sample_pair(view)
        if task.profile.task_class is TaskClass.LATENCY_SENSITIVE:
            # the first least wins: the daemon on a tie, then the lower id
            return _assign(view.least_completion((daemon_id, *pair)))
        candidate = view.least_completion(pair)
        if view.has_idle_vm(candidate):
            return _assign(candidate)
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


@lru_cache(maxsize=1024)
def _greedy_order(cloudlet_ids: tuple[int, ...], daemon_id: int) -> tuple[int, ...]:
    """The daemon, then its peers by ascending id: greedy's tie order, kept per daemon."""
    return (daemon_id, *sorted(_peers(cloudlet_ids, daemon_id)))


class GreedyScheduler:
    """Probe every cloudlet and take the earliest expected completion."""

    name = "greedy"

    def decide(self, task: Task, view) -> SchedulingDecision:
        # the first least in the order: ties prefer the daemon, then the lower id
        return _assign(view.least_completion(_greedy_order(view.cloudlet_ids, view.daemon_id)))


class TwoChoicesScheduler:
    """Classic two-choice balancing; class-blind and never delays."""

    name = "two-choices"

    def __init__(self, rng: np.random.Generator):
        self._sample_pair = _sampler(uint32s(rng))  # owns rng: words are read ahead

    def decide(self, task: Task, view) -> SchedulingDecision:
        return _assign(view.least_completion(self._sample_pair(view)))


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
