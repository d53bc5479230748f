"""Deterministic edge-cloud task scheduling simulator.

Mobile tasks arrive at their nearest cloudlet's scheduling daemon and
are placed on that cloudlet, a sampled peer, or deferred; the simulator
replays such traces under six placement policies and reports weighted
turnaround, makespan, and speedup.
"""

from .config import ConfigError, EdgeCloudConfig, build_topology, load_config, save_config
from .engine import (
    Simulation,
    SimulationError,
    SimulationResult,
    TaskRecord,
    simulate,
)
from .metrics import RunSummary, average_speedup, awt, makespans, summarize
from .model import (
    Allocation,
    Cloudlet,
    CompletionBreakdown,
    EdgeCloud,
    NetworkParams,
    Task,
    TaskClass,
    completion_time_cloud,
    completion_time_daemon,
    completion_time_mobile,
    completion_time_remote,
    speedup,
)
from .schedulers import (
    SCHEDULER_NAMES,
    Assign,
    AssignCloud,
    Delay,
    ProbeResult,
    daa_decide,
    make_scheduler,
    sample_two,
)
from .seeding import derive_seed, new_rng
from .workload import (
    Benchmark,
    TraceFormatError,
    TraceSpec,
    default_catalog,
    generate_arrivals,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Assign",
    "AssignCloud",
    "Benchmark",
    "Cloudlet",
    "CompletionBreakdown",
    "ConfigError",
    "Delay",
    "EdgeCloud",
    "EdgeCloudConfig",
    "NetworkParams",
    "ProbeResult",
    "RunSummary",
    "SCHEDULER_NAMES",
    "Simulation",
    "SimulationError",
    "SimulationResult",
    "Task",
    "TaskClass",
    "TaskRecord",
    "TraceFormatError",
    "TraceSpec",
    "average_speedup",
    "awt",
    "build_topology",
    "completion_time_cloud",
    "completion_time_daemon",
    "completion_time_mobile",
    "completion_time_remote",
    "daa_decide",
    "default_catalog",
    "derive_seed",
    "generate_arrivals",
    "generate_trace",
    "load_config",
    "load_trace",
    "make_scheduler",
    "makespans",
    "new_rng",
    "sample_two",
    "save_config",
    "save_trace",
    "simulate",
    "speedup",
    "summarize",
    "__version__",
]
