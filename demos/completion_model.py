"""
Where should one task run?
==========================

Costs out a single offloading request on every platform it could land
on: the device itself, its daemon cloudlet, a neighbour cloudlet, and
the cloud.
"""

from petrel.model import (
    Cloudlet,
    NetworkParams,
    Profile,
    Task,
    TaskClass,
    cloud_times,
    placement_route,
    placement_times,
    speedup,
)

net = NetworkParams(
    daemon_rtt=10.0,
    cloudlet_bandwidth=12500.0,
    cloud_rtt=250.0,
    cloud_bandwidth=800.0,
    remote_rtt=60.0,
)
daemon = Cloudlet(id=0, vm_count=2, speed_factor=1.0, net=net)
neighbour = Cloudlet(id=1, vm_count=2, speed_factor=2.0, net=net)

profile = Profile(
    benchmark="pool",
    task_class=TaskClass.LATENCY_SENSITIVE,
    base_service_time=6400.0,
    mobile_exec_time=28800.0,
    cloud_exec_time=6400.0,
    data_volume=2_400_000.0,
)
task = Task(id=0, arrival_time=0.0, daemon_id=0, profile=profile)

print(f"task: {profile.base_service_time:.0f} ms of work, "
      f"{profile.data_volume / 1e6:.1f} MB of input data\n")

daemon_exec, daemon_comm = placement_times(profile, placement_route(daemon, daemon))
neighbour_exec, neighbour_comm = placement_times(profile, placement_route(daemon, neighbour))
cloud_exec, cloud_comm = cloud_times(profile, net)

# (exec, wait, comm) of each placement: only a busy cloudlet makes the task wait
options = {
    "mobile (no offload)": (profile.mobile_exec_time, 0.0, 0.0),
    "daemon, idle VM": (daemon_exec, 0.0, daemon_comm),
    "daemon, 3 s queue": (daemon_exec, 3000.0, daemon_comm),
    "neighbour (2x faster)": (neighbour_exec, 0.0, neighbour_comm),
    "cloud": (cloud_exec, 0.0, cloud_comm),
}
totals = {label: exec_time + wait + comm for label, (exec_time, wait, comm) in options.items()}

print(f"{'placement':<22} {'exec':>8} {'wait':>7} {'comm':>8} {'total':>9}")
for label, (exec_time, wait, comm) in options.items():
    print(f"{label:<22} {exec_time:>8.0f} {wait:>7.0f} {comm:>8.0f} {totals[label]:>9.0f}")

# speedup compares each total against just running it on the phone
print("\nspeedup over the device (above 1 means offloading won):")
for label in ("daemon, idle VM", "neighbour (2x faster)", "cloud"):
    print(f"  {label:<22} {speedup(task, totals[label]):.2f}x")
