"""
Where should one task run?
==========================

Costs out a single offloading request on every platform it could land
on: the device itself, its daemon cloudlet, a neighbour cloudlet, and
the cloud.
"""

from petrel import (
    NetworkParams,
    Cloudlet,
    completion_time_cloud,
    completion_time_daemon,
    completion_time_mobile,
    completion_time_remote,
    speedup,
)
from petrel.model import Task, TaskClass

net = NetworkParams(
    daemon_rtt=10.0,
    cloudlet_bandwidth=12500.0,
    cloud_rtt=250.0,
    cloud_bandwidth=800.0,
    remote_rtt=60.0,
)
daemon = Cloudlet(id=0, vm_count=2, speed_factor=1.0, net=net)
neighbour = Cloudlet(id=1, vm_count=2, speed_factor=2.0, net=net)

task = Task(
    id=0,
    arrival_time=0.0,
    daemon_id=0,
    task_class=TaskClass.LATENCY_SENSITIVE,
    base_service_time=6400.0,
    mobile_exec_time=28800.0,
    cloud_exec_time=6400.0,
    data_volume=2_400_000.0,
)

print(f"task: {task.base_service_time:.0f} ms of work, "
      f"{task.data_volume / 1e6:.1f} MB of input data\n")

options = {
    "mobile (no offload)": completion_time_mobile(task),
    "daemon, idle VM": completion_time_daemon(task, daemon, wait=0.0),
    "daemon, 3 s queue": completion_time_daemon(task, daemon, wait=3000.0),
    "neighbour (2x faster)": completion_time_remote(task, daemon, neighbour, wait=0.0),
    "cloud": completion_time_cloud(task, net),
}

print(f"{'placement':<22} {'exec':>8} {'wait':>7} {'comm':>8} {'total':>9}")
for label, bd in options.items():
    print(f"{label:<22} {bd.exec:>8.0f} {bd.wait:>7.0f} {bd.comm:>8.0f} {bd.total:>9.0f}")

# speedup compares each total against just running it on the phone
print("\nspeedup over the device (above 1 means offloading won):")
for label in ("daemon, idle VM", "neighbour (2x faster)", "cloud"):
    print(f"  {label:<22} {speedup(task, options[label].total):.2f}x")
