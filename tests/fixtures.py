"""Hand-rolled builders shared across test modules."""

from __future__ import annotations

from petrel.model import (Cloudlet, EdgeCloud, NetworkParams, Profile, Task, TaskClass,
                          placement_route, placement_times)


def make_net(
    daemon_rtt: float = 10.0,
    cloudlet_bandwidth: float = 12500.0,
    cloud_rtt: float = 250.0,
    cloud_bandwidth: float = 800.0,
    remote_rtt: float | dict[int, float] = 60.0,
) -> NetworkParams:
    return NetworkParams(
        daemon_rtt=daemon_rtt,
        cloudlet_bandwidth=cloudlet_bandwidth,
        cloud_rtt=cloud_rtt,
        cloud_bandwidth=cloud_bandwidth,
        remote_rtt=remote_rtt,
    )


def make_cloudlet(
    cloudlet_id: int = 0,
    vm_count: int = 1,
    speed_factor: float = 1.0,
    net: NetworkParams | None = None,
) -> Cloudlet:
    return Cloudlet(
        id=cloudlet_id,
        vm_count=vm_count,
        speed_factor=speed_factor,
        net=net if net is not None else make_net(),
    )


def make_topology(*cloudlets: Cloudlet) -> EdgeCloud:
    if not cloudlets:
        cloudlets = (make_cloudlet(0), make_cloudlet(1), make_cloudlet(2))
    return EdgeCloud(cloudlets=tuple(cloudlets))


def make_task(
    task_id: int = 0,
    daemon_id: int = 0,
    arrival_time: float = 0.0,
    task_class: TaskClass | str = TaskClass.LATENCY_SENSITIVE,
    mobile_exec_time: float = 5000.0,
    base_service_time: float = 1000.0,
    cloud_exec_time: float = 800.0,
    data_volume: float = 1_000_000.0,
    latency_bound: float | None = None,
) -> Task:
    if isinstance(task_class, str):
        task_class = TaskClass.from_token(task_class)
    profile = Profile(
        benchmark="synthetic",
        task_class=task_class,
        mobile_exec_time=mobile_exec_time,
        base_service_time=base_service_time,
        cloud_exec_time=cloud_exec_time,
        data_volume=data_volume,
        latency_bound=latency_bound,
    )
    return Task(id=task_id, arrival_time=arrival_time, daemon_id=daemon_id, profile=profile)


def cloudlet_completion(task: Task, daemon: Cloudlet, executor: Cloudlet, wait: float) -> float:
    """Completion relative to arrival on ``executor``, reached through ``daemon``: the
    queue wait, then the placement's execution and communication, summed as the engine does."""
    exec_time, comm = placement_times(task.profile, placement_route(daemon, executor))
    return wait + exec_time + comm
