"""Deterministic edge-cloud task scheduling simulator.

Mobile tasks arrive at their nearest cloudlet's scheduling daemon and
are placed on that cloudlet, a sampled peer, or deferred; the simulator
replays such traces under six placement policies and reports weighted
turnaround, makespan, and speedup.
"""

from .config import EdgeCloudConfig, save_config
from .engine import simulate
from .metrics import summarize
from .model import (
    Cloudlet,
    NetworkParams,
    completion_time_cloud,
    completion_time_daemon,
    completion_time_mobile,
    completion_time_remote,
    speedup,
)
from .schedulers import SCHEDULER_NAMES, make_scheduler
from .seeding import derive_seed, new_rng
from .workload import generate_trace

__version__ = "0.1.0"

__all__ = [
    "Cloudlet",
    "EdgeCloudConfig",
    "NetworkParams",
    "SCHEDULER_NAMES",
    "completion_time_cloud",
    "completion_time_daemon",
    "completion_time_mobile",
    "completion_time_remote",
    "derive_seed",
    "generate_trace",
    "make_scheduler",
    "new_rng",
    "save_config",
    "simulate",
    "speedup",
    "summarize",
    "__version__",
]
