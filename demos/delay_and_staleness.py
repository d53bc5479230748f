"""
Waiting on purpose
==================

Follows one latency-tolerant task through the delay-scheduling path,
then shows why stale load information makes full probing overrated.
"""

import numpy as np

from petrel.engine import Simulation
from petrel.model import Cloudlet, EdgeCloud, NetworkParams, Profile, Task, TaskClass
from petrel.schedulers import DaaScheduler, GreedyScheduler

net = NetworkParams(daemon_rtt=10.0, cloudlet_bandwidth=12500.0,
                    cloud_rtt=250.0, cloud_bandwidth=800.0, remote_rtt=60.0)
topo = EdgeCloud(tuple(Cloudlet(id=i, vm_count=1, speed_factor=1.0, net=net)
                       for i in range(3)))


# one profile per application type, shared by every task of that type
quick = Profile(benchmark="quick", task_class=TaskClass.LATENCY_SENSITIVE,
                base_service_time=4000.0, mobile_exec_time=20000.0, cloud_exec_time=4000.0,
                data_volume=0.0)


def sensitive(i, arrival, daemon):
    return Task(id=i, arrival_time=arrival, daemon_id=daemon, profile=quick)


# clog every cloudlet, then hand daemon 0 a tolerant task with slack
load = [sensitive(i, 0.0, i) for i in range(3)]
patient = Task(id=3, arrival_time=100.0, daemon_id=0, profile=Profile(
    benchmark="patient", task_class=TaskClass.LATENCY_TOLERANT, base_service_time=1000.0,
    mobile_exec_time=6000.0, cloud_exec_time=1000.0, data_volume=0.0, latency_bound=30000.0))

policy = DaaScheduler(np.random.default_rng(1), delay_quantum=500.0)
result = Simulation(topo, policy).run(load + [patient])

record = result.records[3]
print("tolerant task with every VM busy:")
print(f"  arrived {record.arrival_time:.0f}, committed {record.assign_time:.0f} "
      f"after {record.delays_taken} delays, done {record.completion_time:.0f}")
print("  each wake-up re-probed two random neighbours before settling\n")

# now the staleness story: probing everyone is only as good as the
# moment the probe was taken.  clog daemon 0, then hit it with a burst
# that arrives faster than remote load reports refresh
wide = EdgeCloud(tuple(Cloudlet(id=i, vm_count=1, speed_factor=1.0, net=net)
                       for i in range(6)))
blocker = Task(id=0, arrival_time=0.0, daemon_id=0, profile=Profile(
    benchmark="blocker", task_class=TaskClass.LATENCY_SENSITIVE, base_service_time=60000.0,
    mobile_exec_time=300000.0, cloud_exec_time=60000.0, data_volume=0.0))
burst = [sensitive(i, 100.0 * i, 0) for i in range(1, 7)]

for latency in (0.0, 1500.0):
    greedy = Simulation(wide, GreedyScheduler(), probe_latency=latency).run([blocker] + burst)
    adaptive = Simulation(
        wide, DaaScheduler(np.random.default_rng(2), delay_quantum=500.0),
        probe_latency=latency,
    ).run([blocker] + burst)
    tag = "fresh probes" if latency == 0 else f"{latency:.0f} ms stale"
    for name, result in (("greedy", greedy), ("adaptive", adaptive)):
        spots = [str(r.executor) for r in result.records[1:]]
        awt = sum(r.turnaround / r.service_time for r in result.records[1:]) / len(burst)
        print(f"{tag:>14}  {name:<8} awt {awt:.2f}   burst landed on {spots}")

print("\nstale views show every neighbour idle, so probing all of them")
print("just herds the burst onto one node; sampling two at random keeps")
print("the spread even when the information is old")
