"""Event loop behaviour: queueing, waits, delays, probe staleness."""

from bisect import bisect_right
from collections import Counter
from dataclasses import replace
import itertools
import math
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_cloudlet, make_net, make_task, make_topology
from petrel.engine import (
    ARRIVAL,
    DELAY_EXPIRED,
    ClusterView,
    DecisionEntry,
    Simulation,
    SimulationError,
    TaskRecord,
    simulate,
)
from petrel.config import EdgeCloudConfig
from petrel.model import cloud_times, placement_times
from petrel.schedulers import (
    Assign,
    AssignCloud,
    DaaScheduler,
    DaemonOnlyScheduler,
    Delay,
    ProbeResult,
    RoundRobinScheduler,
    SAMPLING_SCHEDULERS,
    SCHEDULER_NAMES,
    make_scheduler,
)
from petrel.workload import generate_trace
from replay_oracle import ReplayOracle


class Scripted:
    """Plays back a fixed list of decisions, one per invocation."""

    name = "scripted"

    def __init__(self, decisions):
        self._decisions = iter(decisions)

    def decide(self, task, view):
        return next(self._decisions)


class Unreadable(dict):
    """A stale-ready mapping that fails any read."""

    def __getitem__(self, cloudlet_id):
        raise AssertionError(f"cloudlet {cloudlet_id} was read")


class Delaying:
    """Delays by one duration for its first ``times`` decisions, then assigns to
    cloudlet 0; counts its decisions."""

    name = "delaying"

    def __init__(self, duration, times):
        self.duration, self.times, self.calls = duration, times, 0

    def decide(self, task, view):
        self.calls += 1
        return Delay(self.duration) if self.calls <= self.times else Assign(0)


def zero_data_net(**overrides):
    params = dict(daemon_rtt=10.0, remote_rtt=60.0)
    params.update(overrides)
    return make_net(**params)


def small_topology(vms=1, count=2, speed=1.0):
    net = zero_data_net()
    return make_topology(
        *(make_cloudlet(i, vm_count=vms, speed_factor=speed, net=net) for i in range(count))
    )


def one_cloudlet(vm_count):
    """A simulation of one cloudlet with ``vm_count`` VMs, for driving ``commit`` directly."""
    return Simulation(make_topology(make_cloudlet(0, vm_count=vm_count)), DaemonOnlyScheduler())


def commit(sim, now, exec_time, cloudlet_id=0):
    """The start ``sim.commit`` returns for one task on ``cloudlet_id``."""
    return sim.commit(cloudlet_id, now, exec_time)


def earliest_ready(sim, cloudlet_id=0):
    return sim.heaps[cloudlet_id][0]


def ready_times(sim, cloudlet_id=0):
    return sorted(sim.heaps[cloudlet_id])


class TestVmSchedule:
    """One cloudlet's VM heap of ready times, driven through ``Simulation.commit``."""

    def test_all_vms_start_idle(self):
        sim = one_cloudlet(3)
        assert ready_times(sim) == [0.0, 0.0, 0.0]
        assert [commit(sim, 0.0, 100.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        assert ready_times(sim) == [100.0, 100.0, 100.0]

    def test_commit_occupies_the_earliest_vm(self):
        sim = one_cloudlet(1)
        assert commit(sim, 0.0, 800.0) == 0.0
        assert commit(sim, 0.0, 500.0) == 800.0
        assert earliest_ready(sim) == 1300.0
        assert commit(sim, 0.0, 1.0) == 1300.0

    def test_commit_spreads_over_idle_vms(self):
        sim = one_cloudlet(2)
        assert commit(sim, 0.0, 1000.0) == 0.0
        assert ready_times(sim) == [0.0, 1000.0]
        assert commit(sim, 0.0, 1000.0) == 0.0
        assert ready_times(sim) == [1000.0, 1000.0]
        assert [commit(sim, 0.0, 1.0) for _ in range(2)] == [1000.0, 1000.0]
        assert ready_times(sim) == [1001.0, 1001.0]

    def test_late_commit_starts_at_now(self):
        sim = one_cloudlet(1)
        assert commit(sim, 700.0, 100.0) == 700.0
        assert earliest_ready(sim) == 800.0
        assert commit(sim, 700.0, 1.0) == 800.0

    def test_start_follows_the_clock(self):
        sim = one_cloudlet(1)
        sim.commit(0, 0.0, 400.0)
        assert commit(sim, 399.0, 1.0) == 400.0  # still busy at 399
        sim = one_cloudlet(1)
        sim.commit(0, 0.0, 400.0)
        assert commit(sim, 400.0, 1.0) == 400.0  # idle again at 400

    def test_a_commit_at_the_ready_instant_starts_at_now(self):
        # on a tie the start is ``now`` itself, as ``max(now, ready)`` gives: -0.0 == 0.0
        start = one_cloudlet(1).commit(0, -0.0, 1.0)
        assert math.copysign(1.0, start) == -1.0


class TestProbeAndCommitHelpers:
    """Probes, delayed projections, commits and wake-ups as a run sees them."""

    @staticmethod
    def _node_sim(vm_count, daemon_rtt, busy_until):
        node = make_cloudlet(0, vm_count=vm_count, net=zero_data_net(daemon_rtt=daemon_rtt))
        sim = Simulation(make_topology(node), DaemonOnlyScheduler())
        for exec_time in busy_until:
            sim.commit(0, 0.0, exec_time)
        return sim

    def test_probe_is_a_duration_from_now(self):
        sim = self._node_sim(vm_count=2, daemon_rtt=100.0, busy_until=(3000.0, 5000.0))
        task = make_task(base_service_time=4000.0, data_volume=0.0)
        probe = ClusterView(sim, task, now=2000.0).probe(0)
        assert probe.expected_completion == 2000.0 + 5100.0  # wall clock 7,100

    def test_a_probe_at_the_ready_instant_reports_an_idle_vm(self):
        sim = self._node_sim(vm_count=1, daemon_rtt=100.0, busy_until=(3000.0,))
        task = make_task(base_service_time=4000.0, data_volume=0.0)
        probe = ClusterView(sim, task, now=3000.0).probe(0)
        assert probe.has_idle_vm
        assert probe.expected_completion == 3000.0 + 4000.0 + 100.0

    def test_probe_with_a_future_commit_instant(self):
        sim = self._node_sim(vm_count=1, daemon_rtt=100.0, busy_until=(3000.0,))
        task = make_task(base_service_time=4000.0, data_volume=0.0)
        view = ClusterView(sim, task, now=2000.0)
        on_time = view.daemon_completion_if_delayed(500.0) - 2000.0
        late = view.daemon_completion_if_delayed(1500.0) - 2000.0
        assert on_time == 5100.0
        assert late == 5600.0

    def test_commit_returns_start_and_completion(self):
        topo = make_topology(make_cloudlet(0, net=zero_data_net(daemon_rtt=10.0)))
        task = make_task(arrival_time=800.0, base_service_time=500.0, data_volume=0.0)
        sim = Simulation(topo, Scripted([Assign(0)]))
        record = sim.run([task]).records[0]
        assert (record.start_time, record.completion_time) == (800.0, 1310.0)
        assert earliest_ready(sim) == 1300.0
        assert commit(sim, 800.0, 1.0) == 1300.0

    def test_remote_commit_charges_the_pair_rtt(self):
        net = zero_data_net(daemon_rtt=10.0, remote_rtt=60.0)
        topo = make_topology(make_cloudlet(0, net=net), make_cloudlet(1, net=net))
        task = make_task(base_service_time=500.0, data_volume=0.0)
        record = Simulation(topo, Scripted([Assign(1)])).run([task]).records[0]
        assert record.completion_time == 570.0

    def test_wake_event_lands_a_quantum_later(self):
        # the six other arrivals at 100 are decided before the wake-up at 350
        trace = [make_task(task_id=i, arrival_time=100.0, task_class="tolerant",
                           latency_bound=9000.0, data_volume=0.0) for i in range(7)]
        policy = Scripted([Delay(250.0)] + [Assign(0)] * 7)
        result = Simulation(small_topology(), policy).run(trace)
        entry = result.decisions[-1]
        assert entry.time == 350.0
        assert entry.kind == "delay-expired"
        assert entry.task_id == 0
        assert entry.decision == Assign(0)
        assert (result.records[0].assign_time, result.records[0].delays_taken) == (350.0, 1)

    def test_only_tolerant_tasks_may_wait(self):
        task = make_task(task_id=3)
        with pytest.raises(SimulationError,
                           match="^task 3: only latency-tolerant tasks can be delayed$"):
            Simulation(small_topology(), Scripted([Delay(250.0)])).run([task])

    def test_wait_must_be_positive(self):
        task = make_task(task_id=4, task_class="tolerant", latency_bound=9000.0)
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(), Scripted([Delay(0.0)])).run([task])
        assert str(caught.value) == ("task 4: a delay of 0.0 ms at 0.0 ms must end strictly"
                                     " after now and before the deadline 9000.0 ms")

    @pytest.mark.parametrize("delay", [nan, inf, -inf])
    def test_wait_must_be_finite(self, delay):
        # checked on a wake-up's decision too, not only on an arrival's
        task = make_task(task_id=4, task_class="tolerant", latency_bound=9000.0)
        policy = Scripted([Delay(250.0), Delay(delay)])
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(), policy).run([task])
        assert str(caught.value) == (f"task 4: a delay of {delay} ms at 250.0 ms must end strictly"
                                     " after now and before the deadline 9000.0 ms")


class TestOneRunPerSimulation:
    """A run leaves its commits behind, so a second run must be refused."""

    @pytest.mark.parametrize("policy,latency", [("greedy", 1500.0), ("daemon-only", 0.0)])
    def test_a_second_run_is_refused(self, policy, latency):
        trace = busy_mixed_trace(n=50)
        sim = Simulation(small_topology(vms=2, count=3), make_scheduler(policy),
                         probe_latency=latency)
        first = sim.run(trace)
        assert len(first.records) == 50
        with pytest.raises(SimulationError, match="^a Simulation runs once; build a new one"):
            sim.run(trace)

    def test_a_rejected_trace_does_not_use_up_the_run(self):
        sim = Simulation(small_topology(), DaemonOnlyScheduler())
        with pytest.raises(SimulationError, match="duplicate task id"):
            sim.run([make_task(task_id=1), make_task(task_id=1)])
        assert len(sim.run([make_task(task_id=1)]).records) == 1


class TestSimulationRuns:
    def test_single_vm_serialises_simultaneous_arrivals(self):
        topo = small_topology(vms=1, count=1)
        trace = [
            make_task(task_id=0, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
            make_task(task_id=1, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
        ]
        records = Simulation(topo, DaemonOnlyScheduler()).run(trace).records
        assert [r.completion_time for r in records] == [1010.0, 2010.0]
        assert [r.start_time for r in records] == [0.0, 1000.0]

    def test_empty_trace_is_a_quiet_run(self):
        result = Simulation(small_topology(), DaemonOnlyScheduler()).run([])
        assert result.records == []
        assert result.decisions == []

    def test_independent_daemons_never_queue_on_each_other(self):
        topo = small_topology(vms=1, count=2)
        trace = [
            make_task(task_id=0, daemon_id=0, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
            make_task(task_id=1, daemon_id=1, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
        ]
        records = Simulation(topo, DaemonOnlyScheduler()).run(trace).records
        assert all(r.start_time == 0.0 for r in records)

    def test_cloud_assignments_never_wait(self):
        topo = small_topology(vms=1, count=1)
        trace = [
            make_task(task_id=i, arrival_time=0.0, cloud_exec_time=700.0, data_volume=0.0)
            for i in range(3)
        ]
        records = Simulation(topo, Scripted([AssignCloud()] * 3)).run(trace).records
        for r in records:
            assert r.start_time == 0.0
            assert r.completion_time == 700.0 + 250.0
            assert r.executor is None

    def test_delay_defers_and_then_lands(self):
        topo = small_topology(vms=1, count=1)
        busy = make_task(task_id=0, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0)
        waiter = make_task(
            task_id=1, daemon_id=0, arrival_time=0.0, task_class="tolerant",
            base_service_time=100.0, data_volume=0.0, latency_bound=50_000.0,
        )
        policy = Scripted([Assign(0), Delay(300.0), Delay(300.0), Assign(0)])
        result = Simulation(topo, policy).run([busy, waiter])
        record = result.records[1]
        assert record.assign_time == 600.0
        assert record.delays_taken == 2
        assert record.start_time == 1000.0
        assert record.completion_time == 1110.0

    @pytest.mark.parametrize("delay", [nan, inf, -inf])
    def test_a_non_finite_delay_names_the_task_and_duration(self, delay):
        # on the first decision, not after re-delaying at time nan
        topo = small_topology(vms=1, count=1)
        task = make_task(task_id=92, task_class="tolerant", latency_bound=1e12, data_volume=0.0)
        with pytest.raises(SimulationError) as caught:
            Simulation(topo, Scripted([Delay(delay)])).run([task])
        assert str(caught.value) == (f"task 92: a delay of {delay} ms at 0.0 ms must end strictly"
                                     " after now and before the deadline 1000000000000.0 ms")

    def test_one_view_is_moved_through_the_run(self):
        # task 2 arrives between task 1's delay and its wake-up, which reads task 1's own row
        topo = small_topology(vms=1, count=2, speed=1.0)
        trace = [
            make_task(task_id=0, daemon_id=0, arrival_time=0.0, data_volume=0.0),
            make_task(task_id=1, daemon_id=1, arrival_time=5.0, data_volume=0.0,
                      task_class="tolerant", latency_bound=1e12),
            make_task(task_id=2, daemon_id=0, arrival_time=8.0, data_volume=0.0,
                      base_service_time=3000.0),
        ]
        seen = []

        class Watching:
            name = "watching"

            def __init__(self):
                self._decisions = iter([Assign(0), Delay(7.0), AssignCloud(), Assign(1)])

            def decide(self, task, view):
                # the moved view answers as a view built for this decision would
                fresh = ClusterView(sim, task, view.now)
                assert [view.probe(c) for c in (0, 1)] == [fresh.probe(c) for c in (0, 1)]
                seen.append((view, view.now, view.daemon_id, task.id))
                return next(self._decisions)

        sim = Simulation(topo, Watching(), probe_latency=3.0)
        records = sim.run(trace).records
        assert [entry[1:] for entry in seen] == [(0.0, 0, 0), (5.0, 1, 1), (8.0, 0, 2),
                                                 (12.0, 1, 1)]
        assert all(entry[0] is seen[0][0] for entry in seen)
        assert records[1].service_time == 1000.0

    def test_delays_are_taken_until_one_would_reach_the_deadline(self):
        # wake-ups at 10, 20, 30 and 40 are before the deadline 45; one at 50 is not
        task = make_task(task_id=0, task_class="tolerant", latency_bound=45.0, data_volume=0.0)
        policy = Delaying(10.0, times=1000)
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(vms=1, count=1), policy).run([task])
        assert str(caught.value) == ("task 0: a delay of 10.0 ms at 40.0 ms must end strictly"
                                     " after now and before the deadline 45.0 ms")
        assert policy.calls == 5

    def test_a_delay_ending_at_the_deadline_raises(self):
        task = make_task(task_id=0, arrival_time=5.0, task_class="tolerant",
                         latency_bound=45.0, data_volume=0.0)
        policy = Scripted([Delay(30.0), Delay(15.0), Assign(0)])
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(), policy).run([task])
        assert str(caught.value) == ("task 0: a delay of 15.0 ms at 35.0 ms must end strictly"
                                     " after now and before the deadline 50.0 ms")

    def test_a_delay_below_a_float_step_raises_at_once(self):
        # a float step at 1e20 ms is 16384 ms, so a 2 s delay would wake the task at now,
        # and a run that took it would decide the task 1,001 times at that instant
        task = make_task(task_id=7, arrival_time=1e20, task_class="tolerant",
                         latency_bound=1e12, data_volume=0.0)
        policy = Delaying(2000.0, times=1001)
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(), policy).run([task])
        assert str(caught.value) == ("task 7: a delay of 2000.0 ms at 1e+20 ms must end strictly"
                                     " after now and before the deadline 1.00000001e+20 ms")
        assert policy.calls == 1

    def test_records_keep_trace_order_not_completion_order(self):
        topo = small_topology(vms=2, count=2)
        trace = [
            make_task(task_id=5, arrival_time=0.0, base_service_time=5000.0, data_volume=0.0),
            make_task(task_id=3, arrival_time=10.0, base_service_time=100.0, data_volume=0.0),
        ]
        records = Simulation(topo, DaemonOnlyScheduler()).run(trace).records
        assert [r.task_id for r in records] == [5, 3]
        assert records[0].completion_time > records[1].completion_time

    def test_turnaround_speedup_and_bound_flags(self):
        topo = small_topology(vms=1, count=1)
        trace = [
            make_task(
                task_id=0, arrival_time=100.0, task_class="tolerant",
                base_service_time=1000.0, mobile_exec_time=5050.0,
                data_volume=0.0, latency_bound=1010.0,
            ),
            make_task(
                task_id=1, arrival_time=100.0, task_class="tolerant",
                base_service_time=1000.0, mobile_exec_time=5050.0,
                data_volume=0.0, latency_bound=1010.0,
            ),
            make_task(task_id=2, arrival_time=100.0, data_volume=0.0),
        ]
        policy = Scripted([Assign(0), Assign(0), AssignCloud()])
        records = Simulation(topo, policy).run(trace).records
        first, second, sensitive = records
        assert first.turnaround == 1010.0
        assert first.speedup == 5.0
        assert first.bound_violated is False
        assert second.turnaround == 2010.0
        assert second.bound_violated is True
        assert sensitive.bound_violated is None

    def test_weighted_turnaround_is_turnaround_over_service(self):
        topo = small_topology(vms=1, count=1)
        trace = [
            make_task(task_id=0, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
            make_task(task_id=1, arrival_time=0.0, base_service_time=1000.0, data_volume=0.0),
        ]
        records = Simulation(topo, DaemonOnlyScheduler()).run(trace).records
        assert records[0].weighted_turnaround == 1010.0 / 1000.0
        assert records[1].weighted_turnaround == 2010.0 / 1000.0

    def test_completion_events_match_records(self):
        # completions are not queued as events; each record's completion
        # must be its start plus the model's exec and comm for its placement
        topo = small_topology(vms=1, count=3, speed=1.25)
        trace = [
            make_task(task_id=i, daemon_id=i % 3, arrival_time=50.0 * i,
                      data_volume=125_000.0 * (i % 4))
            for i in range(12)
        ]
        # daemon, peer and cloud placements in turn
        placements = [
            (Assign(t.daemon_id), Assign((t.daemon_id + 1) % 3), AssignCloud())[t.id % 3]
            for t in trace
        ]
        result = Simulation(topo, Scripted(placements)).run(trace)
        assert {r.executor is None for r in result.records} == {False, True}
        for task, record in zip(trace, result.records):
            daemon = topo.get(task.daemon_id)
            if record.executor is None:
                exec_time, comm = cloud_times(task.profile, daemon.net)
            else:
                exec_time, comm = placement_times(task.profile, daemon,
                                                  topo.get(record.executor))
            assert record.completion_time == record.start_time + exec_time + comm

    def test_the_cloud_is_priced_over_the_daemons_own_net(self):
        topo = make_topology(*(
            make_cloudlet(i, net=make_net(cloud_rtt=100.0 * k, cloud_bandwidth=400.0 * k))
            for i, k in enumerate((1, 2, 3))))
        trace = [make_task(task_id=i, daemon_id=d, arrival_time=10.0 * i, data_volume=800_000.0)
                 for i, d in enumerate((2, 1, 0, 2, 1))]
        result = Simulation(topo, Scripted([AssignCloud()] * len(trace))).run(trace)
        # the cloud's comm is 2100, 1200 and 966.7 ms from daemons 0, 1 and 2, after 800 ms of work
        for task, record in zip(trace, result.records):
            net = topo.get(task.daemon_id).net
            assert record.service_time == 800.0
            assert record.completion_time == (task.arrival_time + 800.0
                                              + (800_000.0 / net.cloud_bandwidth + net.cloud_rtt))
        assert len({r.turnaround for r in result.records}) == 3

    def test_decision_log_is_time_ordered(self):
        topo = small_topology(vms=1, count=2)
        trace = [
            make_task(task_id=i, daemon_id=i % 2, arrival_time=30.0 * i, data_volume=0.0)
            for i in range(8)
        ]
        result = Simulation(topo, RoundRobinScheduler()).run(trace)
        times = [d.time for d in result.decisions]
        assert times == sorted(times)
        assert [d.task_id for d in result.decisions] == list(range(8))


class TestBuiltTupleShapes:
    """The engine builds its named tuples without their constructors, so pin their shape."""

    def test_every_tuple_is_exactly_its_type(self):
        probes = []

        class Probing(Scripted):
            def decide(self, task, view):
                probes.extend(view.probe(c) for c in view.cloudlet_ids)
                return super().decide(task, view)

        trace = [make_task(task_id=i, daemon_id=i % 2, arrival_time=100.0 * i,
                           task_class="tolerant", latency_bound=1e9) for i in range(4)]
        script = [Assign(0), Assign(0), AssignCloud(), Delay(50.0), Assign(1)]
        result = Simulation(small_topology(), Probing(script), probe_latency=75.0).run(trace)
        kinds = Counter(type(d.decision).__name__ for d in result.decisions)
        assert kinds == {"Assign": 3, "AssignCloud": 1, "Delay": 1}
        assert {r.executor for r in result.records} == {0, 1, None}
        groups = [(TaskRecord, result.records), (DecisionEntry, result.decisions),
                  (ProbeResult, probes)]
        for cls, items in groups:
            assert items
            for item in items:
                assert type(item) is cls
                assert len(item) == len(cls._fields)
                assert item == cls(*item)


class TestTraceValidation:
    def test_rejects_unsorted_traces(self):
        trace = [
            make_task(task_id=0, arrival_time=100.0),
            make_task(task_id=1, arrival_time=50.0),
        ]
        with pytest.raises(SimulationError, match="^trace not sorted by arrival time at task 1$"):
            Simulation(small_topology(), DaemonOnlyScheduler()).run(trace)

    def test_rejects_duplicate_task_ids(self):
        trace = [
            make_task(task_id=0, arrival_time=0.0),
            make_task(task_id=0, arrival_time=10.0),
        ]
        with pytest.raises(SimulationError, match="^duplicate task id 0 in trace$"):
            Simulation(small_topology(), DaemonOnlyScheduler()).run(trace)

    def test_rejects_unknown_daemons(self):
        trace = [make_task(task_id=0, daemon_id=9)]
        with pytest.raises(SimulationError, match="^task 0 names unknown daemon cloudlet 9$"):
            Simulation(small_topology(), DaemonOnlyScheduler()).run(trace)

    @pytest.mark.parametrize("second,message", [
        # a task breaking several rules is reported by the first rule it breaks
        (make_task(task_id=0, daemon_id=9, arrival_time=50.0),
         "trace not sorted by arrival time at task 0"),
        (make_task(task_id=0, daemon_id=9, arrival_time=100.0), "duplicate task id 0 in trace"),
    ])
    def test_checks_order_then_ids_then_daemons(self, second, message):
        trace = [make_task(task_id=0, arrival_time=100.0), second]
        with pytest.raises(SimulationError, match=f"^{message}$"):
            Simulation(small_topology(), DaemonOnlyScheduler()).run(trace)

    @pytest.mark.parametrize("latency", [0.0, 125.0])
    def test_rejects_assignments_to_unknown_cloudlets(self, latency):
        trace = [make_task(task_id=3)]
        sim = Simulation(small_topology(), Scripted([Assign(99)]), probe_latency=latency)
        with pytest.raises(SimulationError) as caught:
            sim.run(trace)
        assert str(caught.value) == "scheduler assigned task 3 to unknown cloudlet 99"
        assert [earliest_ready(sim, c) for c in sim.heaps] == [0.0, 0.0]
        assert not sim.commit_log

    def test_an_assignment_to_cloudlet_none_is_not_the_cloud(self):
        # the row keeps the cloud's price beside its entries, never under None
        sim = Simulation(small_topology(), Scripted([Assign(None)]))
        with pytest.raises(SimulationError, match="^scheduler assigned task 3 to unknown"
                                                  " cloudlet None$"):
            sim.run([make_task(task_id=3)])

    @pytest.mark.parametrize("latency", [0.0, 125.0])
    def test_probing_an_unknown_cloudlet_raises_key_error(self, latency):
        sim = Simulation(small_topology(), DaemonOnlyScheduler(), probe_latency=latency)
        view = ClusterView(sim, make_task(daemon_id=0), now=500.0)
        with pytest.raises(KeyError):
            view.probe(99)
        with pytest.raises(KeyError):
            view.has_idle_vm(99)

    @pytest.mark.parametrize("decision", [None, "park it"])
    def test_rejects_foreign_decision_objects(self, decision):
        trace = [make_task(task_id=0)]
        sim = Simulation(small_topology(), Scripted([decision]), probe_latency=125.0)
        with pytest.raises(SimulationError) as caught:
            sim.run(trace)
        assert str(caught.value) == f"scheduler returned unknown decision {decision!r}"
        assert [earliest_ready(sim, c) for c in sim.heaps] == [0.0, 0.0]
        assert not sim.commit_log

    @pytest.mark.parametrize("new_scheduler", [DaemonOnlyScheduler,
                                               lambda: Scripted([AssignCloud()])])
    def test_rejects_a_turnaround_lost_to_rounding(self, new_scheduler):
        # at 1e25 ms a float step is 2**31 ms, so a 1 s service leaves completion == arrival
        trace = [make_task(task_id=3, arrival_time=1e25)]
        with pytest.raises(SimulationError, match="task 3: turnaround rounds to 0"):
            Simulation(small_topology(), new_scheduler()).run(trace)

    @pytest.mark.parametrize("decision", [Assign(0), Assign(1), AssignCloud()])
    def test_rejects_a_completion_that_overflows(self, decision):
        # 1.7e308 + 1e308 of service is past the largest float, 1.8e308
        trace = [make_task(task_id=4, arrival_time=1.7e308, base_service_time=1e308,
                           mobile_exec_time=1e308, cloud_exec_time=1e308)]
        with pytest.raises(SimulationError) as caught:
            Simulation(small_topology(), Scripted([decision])).run(trace)
        assert str(caught.value) == ("task 4: completion time overflows the float range"
                                     " (arrival 1.7e+308 ms)")

    @pytest.mark.parametrize("latency", [nan, inf, -inf, -1.0])
    def test_rejects_a_non_finite_or_negative_probe_latency(self, latency):
        with pytest.raises(SimulationError,
                           match=f"^probe_latency must be finite and >= 0, got {latency}$"):
            Simulation(small_topology(), DaemonOnlyScheduler(), probe_latency=latency)

    def test_rejects_an_empty_topology(self):
        from petrel.model import EdgeCloud

        with pytest.raises(SimulationError):
            Simulation(EdgeCloud(cloudlets=()), DaemonOnlyScheduler())


def fold_to(sim, now):
    """Fold the log to a decision's horizon at ``now``, by this test's own formula."""
    sim._fold(max(now - sim.probe_latency, 0.0))


def stale_ready_at(sim, now):
    """The stale ready times a decision at ``now`` reads, once the log is folded for it."""
    fold_to(sim, now)
    return dict(sim.stale_ready)


def view_at(sim, task, now):
    """A view of ``task`` at ``now`` over the log folded to that decision's horizon."""
    fold_to(sim, now)
    return ClusterView(sim, task, now)


class TestProbeStaleness:
    def _sim(self, latency, vms=1, count=2):
        topo = small_topology(vms=vms, count=count)
        return Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)

    def test_stale_reads_see_older_state(self):
        sim = self._sim(1000.0)
        sim.commit(1, 600.0, 5000.0)
        assert earliest_ready(sim, 1) == 5600.0
        assert stale_ready_at(sim, 1599.0)[1] == 0.0
        assert stale_ready_at(sim, 1600.0)[1] == 5600.0  # a commit at the horizon is visible
        assert stale_ready_at(sim, 11_000.0)[1] == 5600.0

    def test_stale_reads_take_the_min_across_vms(self):
        sim = self._sim(1000.0, vms=2)
        sim.commit(1, 100.0, 1000.0)
        sim.commit(1, 200.0, 2000.0)
        assert stale_ready_at(sim, 1150.0)[1] == 0.0
        assert stale_ready_at(sim, 1250.0)[1] == 1100.0

    def test_cloudlets_share_one_log_folded_per_decision(self):
        sim = self._sim(1000.0, vms=1, count=3)
        sim.commit(2, 100.0, 900.0)
        sim.commit(1, 200.0, 800.0)
        sim.commit(2, 300.0, 700.0)
        assert [entry[:2] for entry in sim.commit_log] == [(100.0, 2), (200.0, 1), (300.0, 2)]
        assert stale_ready_at(sim, 1250.0) == {0: 0.0, 1: 1000.0, 2: 1000.0}
        assert [entry[:2] for entry in sim.commit_log] == [(300.0, 2)]
        assert stale_ready_at(sim, 1300.0) == {0: 0.0, 1: 1000.0, 2: 1700.0}
        assert not sim.commit_log

    @given(st.deferred(lambda: shared_log_runs()))  # the strategy is defined below
    def test_zero_latency_reads_the_live_heap_heads(self, run):
        # at latency 0 the horizon is now, so folding the log to it gives the live state
        topo, _, ops = run
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=0.0)
        now = 0.0
        for commit, cloudlet_id, step, exec_time in ops:
            now += step
            task = make_task(daemon_id=cloudlet_id)
            view = view_at(sim, task, now)
            daemon = topo.get(cloudlet_id)
            live = {}
            for executor in topo:
                ready = earliest_ready(sim, executor.id)
                exec_cost, comm = placement_times(task.profile, daemon, executor)
                live[executor.id] = (executor.id, max(now, ready) + exec_cost + comm, ready <= now)
                assert view.probe(executor.id) == live[executor.id]
            for size in range(1, len(topo) + 1):
                for order in itertools.permutations(topo.ids, size):
                    done = [live[c][1] for c in order]
                    assert view.least_completion(order) == order[done.index(min(done))]
            if commit:
                sim.commit(cloudlet_id, now, exec_time)

    def test_a_commit_at_zero_is_visible_inside_the_first_latency(self):
        # the run's horizon is max(now - latency, 0): 0 at 50, not -75, so the commit at 0 shows
        seen = []

        class Watching:
            def decide(self, task, view):
                seen.append(view.probe(1))
                return Assign(1)

        trace = [make_task(task_id=0, arrival_time=0.0, base_service_time=5000.0, data_volume=0.0),
                 make_task(task_id=1, arrival_time=50.0, data_volume=0.0)]
        Simulation(small_topology(), Watching(), probe_latency=125.0).run(trace)
        assert seen[1] == (1, 5000.0 + 1000.0 + 70.0, False)

    def test_a_run_folds_a_commit_that_lands_on_a_later_decisions_horizon(self):
        # at latency 100 the decision at 100 reads at horizon 0, the commit's own instant,
        # and the one at 150 reads at horizon 50, before the commit at 100
        seen = []

        class Watching:
            def decide(self, task, view):
                seen.append(view.probe(1))
                return Assign(1)

        trace = [make_task(task_id=i, daemon_id=0, arrival_time=t, data_volume=0.0)
                 for i, t in enumerate((0.0, 100.0, 150.0))]
        Simulation(small_topology(), Watching(), probe_latency=100.0).run(trace)
        assert seen == [(1, 0.0 + 1000.0 + 70.0, True), (1, 1000.0 + 1000.0 + 70.0, False),
                        (1, 1000.0 + 1000.0 + 70.0, False)]

    def test_a_view_a_policy_builds_moves_no_later_read(self):
        # only the run folds, so probing through a view built 1000 ms ahead reads, nothing more
        topo, trace = small_topology(vms=2, count=3), busy_mixed_trace()

        class ProbingAhead:
            def __init__(self):
                self._greedy = make_scheduler("greedy")

            def decide(self, task, view):
                ahead = ClusterView(sim, task, view.now + 1000.0)
                ahead.least_completion(topo.ids)
                return self._greedy.decide(task, view)

        sim = Simulation(topo, ProbingAhead(), probe_latency=300.0)
        records = sim.run(trace).records
        plain = Simulation(topo, make_scheduler("greedy"), probe_latency=300.0).run(trace)
        assert records == plain.records

    def test_remote_probes_lag_behind_commits(self):
        sim = self._sim(1500.0)
        sim.commit(1, 600.0, 5000.0)
        task = make_task(daemon_id=0, data_volume=0.0)
        view = view_at(sim, task, now=1000.0)
        probe = view.probe(1)
        assert probe.has_idle_vm  # the 600ms commit is not visible yet
        assert probe.expected_completion == 1000.0 + 1000.0 + 70.0

    def test_remote_probes_catch_up_once_the_lag_passes(self):
        sim = self._sim(1500.0)
        sim.commit(1, 600.0, 5000.0)
        task = make_task(daemon_id=0, data_volume=0.0)
        probe = view_at(sim, task, now=2200.0).probe(1)
        assert not probe.has_idle_vm
        assert probe.expected_completion == 5600.0 + 1000.0 + 70.0

    def test_daemon_probes_are_always_live(self):
        sim = self._sim(1500.0)
        sim.commit(0, 600.0, 5000.0)
        task = make_task(daemon_id=0, data_volume=0.0)
        probe = ClusterView(sim, task, now=1000.0).probe(0)
        assert not probe.has_idle_vm
        assert probe.expected_completion == 5600.0 + 1000.0 + 10.0

    def test_zero_latency_means_fresh_probes_everywhere(self):
        sim = self._sim(0.0)
        sim.commit(1, 600.0, 5000.0)
        task = make_task(daemon_id=0, data_volume=0.0)
        probe = view_at(sim, task, now=1000.0).probe(1)
        assert not probe.has_idle_vm

    def test_delayed_daemon_projection_uses_live_state(self):
        sim = self._sim(1500.0)
        sim.commit(0, 600.0, 5000.0)
        task = make_task(daemon_id=0, data_volume=0.0)
        view = ClusterView(sim, task, now=1000.0)
        assert view.daemon_completion_if_delayed(400.0) == 5600.0 + 1000.0 + 10.0
        assert view.daemon_completion_if_delayed(9000.0) == 10_000.0 + 1000.0 + 10.0


def busy_mixed_trace(n=60, daemons=3):
    trace = []
    for i in range(n):
        tolerant = i % 3 == 2
        trace.append(
            make_task(
                task_id=i,
                daemon_id=i % daemons,
                arrival_time=100.0 * i,
                task_class="tolerant" if tolerant else "sensitive",
                base_service_time=900.0 + 37.0 * (i % 7),
                data_volume=125_000.0,
                latency_bound=30_000.0 if tolerant else None,
            )
        )
    return trace


class TestPhysicalInvariants:
    def test_no_vm_runs_two_tasks_at_once(self):
        topo = small_topology(vms=2, count=3)
        policy = DaaScheduler(np.random.default_rng(5), delay_quantum=200.0)
        result = Simulation(topo, policy, probe_latency=300.0).run(busy_mixed_trace())
        # per cloudlet, sweep the [start, start + service) busy intervals
        sweeps = {}
        for r in result.records:
            if r.executor is not None:
                sweeps.setdefault(r.executor, []).extend(
                    [(r.start_time, 1), (r.start_time + r.service_time, -1)]
                )
        assert sweeps
        for cloudlet_id, points in sweeps.items():
            busy = peak = 0
            for _, step in sorted(points):  # at a tie an interval ends before the next starts
                busy += step
                peak = max(peak, busy)
            assert peak <= topo.get(cloudlet_id).vm_count

    def test_events_are_arrivals_and_delay_wakeups(self):
        topo = small_topology(vms=2, count=3)
        policy = DaaScheduler(np.random.default_rng(5), delay_quantum=200.0)
        trace = busy_mixed_trace()
        result = Simulation(topo, policy, probe_latency=300.0).run(trace)
        arrivals = Counter(d.task_id for d in result.decisions if d.kind == ARRIVAL)
        wakeups = Counter(d.task_id for d in result.decisions if d.kind == DELAY_EXPIRED)
        assert arrivals == Counter(t.id for t in trace)
        assert sum(wakeups.values()) > 0
        assert wakeups == Counter({r.task_id: r.delays_taken for r in result.records})
        assert len(result.decisions) == len(trace) + sum(r.delays_taken for r in result.records)
        # a task's first decision is its arrival, and each later one the wake-up of a Delay
        last = {}
        for d in result.decisions:
            previous = last.get(d.task_id)
            if previous is None:
                assert d.kind == ARRIVAL
            else:
                assert d.kind == DELAY_EXPIRED and isinstance(previous.decision, Delay)
            last[d.task_id] = d

    def test_events_are_the_decision_log(self):
        # the benchmark harness counts events, decisions and wake-ups on this one log
        result = Simulation(small_topology(count=3), DaemonOnlyScheduler()).run(busy_mixed_trace(n=5))
        assert result.events is result.decisions
        assert len(result.events) == 5

    def test_record_ordering_invariants(self):
        topo = small_topology(vms=2, count=3)
        policy = DaaScheduler(np.random.default_rng(6), delay_quantum=200.0)
        records = Simulation(topo, policy, probe_latency=300.0).run(busy_mixed_trace()).records
        for r in records:
            assert r.arrival_time <= r.assign_time <= r.start_time
            assert r.completion_time > r.start_time
            assert r.turnaround == r.completion_time - r.arrival_time
            assert r.speedup == pytest.approx(5000.0 / r.turnaround)
            if r.delays_taken == 0 and r.task_class.value == "sensitive":
                assert r.assign_time == r.arrival_time


class TestReplayAgreement:
    @pytest.mark.parametrize("latency", [0.0, 300.0])
    @pytest.mark.parametrize("name", ["daa", "two-choices", "greedy", "round-robin"])
    def test_engine_matches_the_handwritten_replay(self, name, latency):
        topo = small_topology(vms=2, count=3)
        trace = busy_mixed_trace(40)
        seed = 2024

        def build():
            return make_scheduler(
                name, rng=np.random.default_rng(seed), delay_quantum=200.0
            )

        result = Simulation(topo, build(), probe_latency=latency).run(trace)
        replay = ReplayOracle(topo, probe_latency=latency).run(trace, build())
        assert_matches_the_oracle(result, replay)


class TestPoliciesReadNoProbe:
    """``probe`` is the custom-policy API: no built-in policy calls it."""

    @pytest.mark.parametrize("latency", [0.0, 300.0])
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_a_run_never_calls_probe(self, name, latency, monkeypatch):
        def probe(view, cloudlet_id):
            raise AssertionError(f"probe({cloudlet_id}) was called")

        monkeypatch.setattr(ClusterView, "probe", probe)
        policy = make_scheduler(name, rng=np.random.default_rng(2024), delay_quantum=200.0)
        result = Simulation(small_topology(vms=2, count=3), policy,
                            probe_latency=latency).run(busy_mixed_trace(40))
        if name == "daa":  # a delay follows a read of the candidate's idle VM
            assert any(e.kind == DELAY_EXPIRED for e in result.decisions)


class TestSimulateEntryPoint:
    def test_accepts_policy_names_and_instances(self):
        config = EdgeCloudConfig(cloudlet_count=3, probe_latency_ms=0.0)
        trace = busy_mixed_trace(20)
        by_name = simulate(config, trace, "daemon-only", seed=99).records
        by_instance = simulate(config, trace, DaemonOnlyScheduler(), seed=99).records
        assert by_name == by_instance

    def test_same_seed_same_records(self):
        config = EdgeCloudConfig(cloudlet_count=3)
        trace = busy_mixed_trace(30)
        first = simulate(config, trace, "daa", seed=4242).records
        second = simulate(config, trace, "daa", seed=4242).records
        assert first == second

    def test_shared_topology_isolates_policy_randomness(self):
        from petrel.config import build_topology

        config = EdgeCloudConfig(cloudlet_count=3)
        topo = build_topology(config, seed=11)
        trace = busy_mixed_trace(30)
        a = simulate(config, trace, "daemon-only", seed=1, topology=topo).records
        b = simulate(config, trace, "daemon-only", seed=2, topology=topo).records
        assert a == b  # daemon-only consumes no randomness

    def test_only_sampling_policies_get_a_policy_stream(self, monkeypatch):
        import petrel.engine as engine

        drawn = []
        real_rng = engine.new_rng
        monkeypatch.setattr(engine, "new_rng",
                            lambda *parts: drawn.append(parts) or real_rng(*parts))
        config = EdgeCloudConfig(cloudlet_count=3)
        trace = busy_mixed_trace(10)
        for name in SCHEDULER_NAMES:
            simulate(config, trace, name, seed=7)
        assert drawn == [(7, "policy")] * len(SAMPLING_SCHEDULERS)


def scaled_twins(trace, k):
    """``trace`` on new profiles whose times are ``k`` times the old ones; odd tasks
    get an equal-valued but distinct copy of the profile their even neighbours share."""
    made = {}

    def scaled(p, twin):
        if (id(p), twin) not in made:
            made[id(p), twin] = replace(
                p, base_service_time=p.base_service_time * k,
                latency_bound=None if p.latency_bound is None else p.latency_bound * k)
        return made[id(p), twin]

    return [t._replace(profile=scaled(t.profile, t.id % 2)) for t in trace]


class TestSharedCostRows:
    """Cost rows live on the topology, so every run on one topology shares them."""

    CONFIG = EdgeCloudConfig(cloudlet_count=4, task_count=80, arrival_rate=3.0)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_runs_on_a_reused_topology_match_runs_on_fresh_ones(self, name):
        from petrel.config import build_topology

        base = generate_trace(self.CONFIG, 8)
        shared = build_topology(self.CONFIG, seed=5)
        # each round's profiles are new objects, and the last round's are freed,
        # so a row keyed by a dead profile's id would price the wrong profile
        for seed, k in enumerate((1.0, 1.5, 0.5, 1.0)):
            trace = scaled_twins(base, k)
            fresh = build_topology(self.CONFIG, seed=5)
            assert (simulate(self.CONFIG, trace, name, seed, topology=shared).records
                    == simulate(self.CONFIG, trace, name, seed, topology=fresh).records)

    def test_each_daemon_and_profile_is_priced_once_per_topology(self, monkeypatch):
        import petrel.model as model
        from petrel.config import build_topology

        built, priced = [], []
        real_times = model.placement_times

        class CountedRow(model._CostRow):
            def __init__(self, by_id, daemon_id, profile):
                built.append((daemon_id, profile))
                super().__init__(by_id, daemon_id, profile)

        monkeypatch.setattr(model, "_CostRow", CountedRow)
        monkeypatch.setattr(model, "placement_times",
                            lambda *args: priced.append(args) or real_times(*args))
        trace = scaled_twins(generate_trace(self.CONFIG, 8), 1.0)
        pairs = {(t.daemon_id, id(t.profile)) for t in trace}
        assert len({id(t.profile) for t in trace}) == 10  # five catalog profiles and their twins
        topo = build_topology(self.CONFIG, seed=5)
        for _ in range(2):  # the second pass builds and prices nothing
            for seed, name in enumerate(SCHEDULER_NAMES):
                simulate(self.CONFIG, trace, name, seed, topology=topo)
            # one row per (daemon, profile), twins apart; greedy probes every executor
            assert sorted((d, id(p)) for d, p in built) == sorted(pairs)
            assert len(priced) == len(pairs) * len(topo)


class HistoryReference:
    """Brute-force VM state: every VM's full commit history, bisected for stale reads."""

    def __init__(self, vm_count):
        self.history = [[(-inf, 0.0)] for _ in range(vm_count)]

    def commit(self, now, exec_time):
        """Start the task on the VM that is ready first; returns the start."""
        vm = min(self.history, key=lambda h: h[-1][1])
        start = max(now, vm[-1][1])
        vm.append((now, start + exec_time))
        return start

    def asof(self, when):
        return min(h[bisect_right(h, (when, inf)) - 1][1] for h in self.history)


# Times on a 125 ms grid make ties: between arrivals (zero gaps), between a
# stale-read horizon and a commit, and between a delay wake-up and an arrival.
GRID = 125.0
# non-negative clock steps; zeros and grid steps make ties between commits and horizons
steps = st.one_of(st.just(0.0), st.integers(1, 8).map(lambda k: GRID * k),
                  st.floats(0.0, 500.0, allow_nan=False))
latencies = st.one_of(st.integers(1, 8).map(lambda k: GRID * k),
                      st.floats(1.0, 2000.0, allow_nan=False))


@st.composite
def shared_log_runs(draw):
    """A latency, 1-4 cloudlets of 1-4 VMs and a list of commits and decisions."""
    vm_counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    topo = make_topology(*(make_cloudlet(i, vm_count=n) for i, n in enumerate(vm_counts)))
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, len(vm_counts) - 1), steps,
                                  st.floats(1.0, 3000.0, allow_nan=False)), max_size=60))
    return topo, draw(latencies), ops


class TestStaleReadsMatchFullHistory:
    """Stale reads through the run-wide log against every cloudlet's full history."""

    @staticmethod
    def _commit(sim, refs, cloudlet_id, now, exec_time):
        assert commit(sim, now, exec_time, cloudlet_id) == refs[cloudlet_id].commit(now, exec_time)

    @staticmethod
    def _assert_reads(sim, refs, now):
        horizon = max(0.0, now - sim.probe_latency)
        assert stale_ready_at(sim, now) == {c: ref.asof(horizon) for c, ref in refs.items()}

    @given(shared_log_runs())
    def test_independent_commit_and_decision_clocks(self, run):
        topo, latency, ops = run
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)
        refs = {c.id: HistoryReference(c.vm_count) for c in topo}
        commit_clock = read_clock = 0.0
        for commit, cloudlet_id, step, exec_time in ops:
            if commit:
                commit_clock += step
                self._commit(sim, refs, cloudlet_id, commit_clock, exec_time)
            else:
                read_clock += step
                self._assert_reads(sim, refs, read_clock)

    @given(shared_log_runs())
    def test_engine_style_decisions_keep_only_newer_commits(self, run):
        # the engine commits at the decision's own instant, after folding to its horizon
        topo, latency, ops = run
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)
        refs = {c.id: HistoryReference(c.vm_count) for c in topo}
        now = 0.0
        for commit, cloudlet_id, step, exec_time in ops:
            now += step
            self._assert_reads(sim, refs, now)
            # once folded, the log holds exactly the commits newer than the horizon, in time order
            horizon = max(now - latency, 0.0)
            newer = [t for ref in refs.values() for h in ref.history for t, _ in h
                     if t > horizon]
            assert [entry[0] for entry in sim.commit_log] == sorted(newer)
            if commit:
                self._commit(sim, refs, cloudlet_id, now, exec_time)

    @given(shared_log_runs())
    def test_each_log_entry_is_its_cloudlets_live_earliest_ready_time(self, run):
        topo, _, ops = run
        sim = Simulation(topo, DaemonOnlyScheduler())
        now = 0.0
        for _, cloudlet_id, step, exec_time in ops:
            now += step
            sim.commit(cloudlet_id, now, exec_time)
            assert sim.commit_log[-1] == (now, cloudlet_id, min(sim.heaps[cloudlet_id]))

    def test_a_backwards_commit_raises(self):
        sim = one_cloudlet(2)
        sim.commit(0, 100.0, 500.0)
        with pytest.raises(ValueError):
            sim.commit(0, 99.0, 500.0)

    def test_a_commit_behind_another_cloudlets_logged_commit_raises(self):
        sim = Simulation(small_topology(count=3), DaemonOnlyScheduler(), probe_latency=100.0)
        sim.commit(1, 200.0, 500.0)
        with pytest.raises(ValueError, match="^commit at 100.0 before the previous commit"
                                             " at 200.0$"):
            sim.commit(2, 100.0, 500.0)
        assert earliest_ready(sim, 2) == 0.0
        assert stale_ready_at(sim, 300.0) == {0: 0.0, 1: 700.0, 2: 0.0}

    def test_a_commit_behind_a_folded_commit_raises(self):
        # the fold empties the log, so only a run-wide last commit still sees the one at 200
        sim = Simulation(small_topology(count=3), DaemonOnlyScheduler(), probe_latency=100.0)
        sim.commit(1, 200.0, 500.0)
        assert stale_ready_at(sim, 400.0) == {0: 0.0, 1: 700.0, 2: 0.0}
        assert not sim.commit_log
        with pytest.raises(ValueError, match="^commit at 150.0 before the previous commit"
                                             " at 200.0$"):
            sim.commit(2, 150.0, 500.0)
        assert earliest_ready(sim, 2) == 0.0
        assert stale_ready_at(sim, 400.0) == {0: 0.0, 1: 700.0, 2: 0.0}


speed_factors = st.floats(0.25, 4.0, allow_nan=False)


@st.composite
def probe_setups(draw):
    count = draw(st.integers(1, 4))
    cloudlets = []
    for i in range(count):
        if draw(st.booleans()):
            remote = draw(st.floats(0.0, 90.0, allow_nan=False))
        else:
            remote = {j: draw(st.floats(0.0, 90.0, allow_nan=False))
                      for j in range(count) if j != i}
        net = make_net(daemon_rtt=draw(st.floats(0.0, 30.0, allow_nan=False)),
                       cloudlet_bandwidth=draw(st.floats(100.0, 20000.0, allow_nan=False)),
                       remote_rtt=remote)
        cloudlets.append(make_cloudlet(i, vm_count=draw(st.integers(1, 3)),
                                       speed_factor=draw(speed_factors), net=net))
    latency = draw(st.one_of(st.just(0.0), st.floats(1.0, 2000.0, allow_nan=False)))
    loads = draw(st.lists(st.tuples(st.integers(0, count - 1), steps,
                                    st.floats(1.0, 5000.0, allow_nan=False)), max_size=12))
    task = make_task(daemon_id=draw(st.integers(0, count - 1)),
                     base_service_time=draw(st.floats(1.0, 90000.0, allow_nan=False)),
                     data_volume=draw(st.floats(0.0, 3e7, allow_nan=False)))
    return make_topology(*cloudlets), latency, loads, task, draw(steps)


class TestProbeMatchesTheModel:
    def test_a_missing_redirect_rtt_raises_at_every_use_of_that_pair(self):
        net = zero_data_net(remote_rtt={1: 60.0})  # no entry towards cloudlet 2
        topo = make_topology(*(make_cloudlet(i, net=net) for i in range(3)))
        sim = Simulation(topo, DaemonOnlyScheduler())
        view = ClusterView(sim, make_task(daemon_id=0, data_volume=0.0), now=0.0)
        assert view.probe(1).expected_completion == 1000.0 + 70.0
        for _ in range(2):
            with pytest.raises(ValueError, match="towards cloudlet 2"):
                view.probe(2)
            with pytest.raises(ValueError, match="towards cloudlet 2"):
                view.least_completion((0, 1, 2))

    @given(probe_setups())
    def test_probe_is_start_plus_exec_and_comm_exactly(self, setup):
        topo, latency, loads, task, lag = setup
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)
        refs = {c.id: HistoryReference(c.vm_count) for c in topo}
        now = 0.0
        for cloudlet_id, step, exec_time in loads:
            now += step
            assert commit(sim, now, exec_time, cloudlet_id) == refs[cloudlet_id].commit(now, exec_time)
        now += lag
        view = view_at(sim, task, now)
        daemon = topo.get(task.daemon_id)
        for executor in topo:
            if executor.id == daemon.id or latency <= 0:
                ready = earliest_ready(sim, executor.id)
            else:
                ready = refs[executor.id].asof(max(0.0, now - latency))
            exec_time, comm = placement_times(task.profile, daemon, executor)
            probe = view.probe(executor.id)
            assert probe.expected_completion == max(now, ready) + exec_time + comm
            assert probe.has_idle_vm == (ready <= now)
        exec_time, comm = placement_times(task.profile, daemon, daemon)
        ready = earliest_ready(sim, daemon.id)
        assert view.daemon_completion_if_delayed(250.0) == max(now + 250.0, ready) + exec_time + comm

    @given(probe_setups())
    def test_has_idle_vm_is_the_probes_flag_fresh_and_stale(self, setup):
        topo, latency, loads, task, lag = setup
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)
        now = 0.0
        for cloudlet_id, step, exec_time in loads:
            now += step
            sim.commit(cloudlet_id, now, exec_time)
        view = view_at(sim, task, now + lag)
        for cloudlet_id in topo.ids:
            assert view.has_idle_vm(cloudlet_id) is view.probe(cloudlet_id).has_idle_vm

    def test_an_all_infinite_scan_returns_its_first_id(self):
        # exec is base_service_time / speed_factor, and 1e308 / 0.5 overflows everywhere
        sim = Simulation(small_topology(count=3, speed=0.5), DaemonOnlyScheduler())
        view = ClusterView(sim, make_task(daemon_id=1, base_service_time=1e308), now=0.0)
        for order in itertools.permutations(range(3)):
            assert [view.probe(c).expected_completion for c in order] == [inf] * 3
            assert view.least_completion(order) == order[0]

    def test_an_unbeatable_idle_daemon_is_returned_without_reading_a_peer(self):
        # equal speeds, and a peer adds its redirect RTT: no peer can end first
        sim = Simulation(small_topology(count=4), DaemonOnlyScheduler())
        view = ClusterView(sim, make_task(daemon_id=2, data_volume=0.0), now=0.0)
        view._stale_ready = Unreadable()
        assert view.least_completion((2, 0, 1, 3)) == 2
        assert view.least_completion((2, 99)) == 2  # an id after it is not read, known or not
        assert view.probe(2) == (2, 1000.0 + 10.0, True)

    def test_an_idle_daemon_loses_to_a_faster_idle_peer(self):
        net = make_net(daemon_rtt=0.0, remote_rtt=0.0)
        topo = make_topology(*(make_cloudlet(i, speed_factor=speed, net=net)
                               for i, speed in enumerate((1.0, 0.5, 4.0))))
        view = ClusterView(Simulation(topo, DaemonOnlyScheduler()),
                           make_task(daemon_id=0, data_volume=0.0), now=0.0)
        assert [view.probe(c).expected_completion for c in (0, 1, 2)] == [1000.0, 2000.0, 250.0]
        assert view.least_completion((0, 1, 2)) == 2
        assert view.least_completion((0, 2, 1)) == 2

    def test_a_busy_daemon_whose_queue_makes_a_peer_win_yields_the_peer(self):
        sim = Simulation(small_topology(count=2), DaemonOnlyScheduler())
        sim.commit(0, 0.0, 500.0)  # the daemon's one VM is busy until 500
        view = ClusterView(sim, make_task(daemon_id=0, data_volume=0.0), now=100.0)
        assert view.probe(0) == (0, 500.0 + 1000.0 + 10.0, False)
        assert view.probe(1) == (1, 100.0 + 1000.0 + 70.0, True)
        assert view.least_completion((0, 1)) == 1

    @given(probe_setups())
    def test_least_completion_is_the_first_least_probe_in_any_order(self, setup):
        topo, latency, loads, task, lag = setup
        sim = Simulation(topo, DaemonOnlyScheduler(), probe_latency=latency)
        now = 0.0
        for cloudlet_id, step, exec_time in loads:
            now += step
            sim.commit(cloudlet_id, now, exec_time)
        view = view_at(sim, task, now + lag)
        for size in range(1, len(topo) + 1):
            for order in itertools.permutations(topo.ids, size):
                done = [view.probe(c).expected_completion for c in order]
                assert view.least_completion(order) == order[done.index(min(done))]


arrival_gaps = st.one_of(st.just(0.0), st.integers(1, 12).map(lambda k: GRID * k))


@st.composite
def oracle_runs(draw):
    """A policy, a random topology and a trace with arrival-time ties."""
    name = draw(st.sampled_from(SCHEDULER_NAMES))
    count = draw(st.integers(2 if name in SAMPLING_SCHEDULERS else 1, 4))
    cloudlets = []
    for i in range(count):
        if draw(st.booleans()):
            remote = draw(st.floats(0.0, 90.0, allow_nan=False))
        else:
            remote = {j: draw(st.floats(0.0, 90.0, allow_nan=False))
                      for j in range(count) if j != i}
        net = make_net(daemon_rtt=draw(st.floats(0.0, 30.0, allow_nan=False)),
                       cloudlet_bandwidth=draw(st.floats(100.0, 20000.0, allow_nan=False)),
                       remote_rtt=remote)
        cloudlets.append(make_cloudlet(i, vm_count=draw(st.integers(1, 3)),
                                       speed_factor=draw(speed_factors), net=net))
    trace = []
    now = 0.0
    for task_id in range(draw(st.integers(1, 25))):
        tolerant = draw(st.booleans())
        trace.append(make_task(
            task_id=task_id,
            daemon_id=draw(st.integers(0, count - 1)),
            arrival_time=now,
            task_class="tolerant" if tolerant else "sensitive",
            base_service_time=draw(st.floats(100.0, 5000.0, allow_nan=False)),
            data_volume=draw(st.floats(0.0, 3e6, allow_nan=False)),
            latency_bound=draw(st.floats(100.0, 20000.0, allow_nan=False)) if tolerant else None,
        ))
        now += draw(arrival_gaps)  # the first task arrives at 0, inside every probe window
    latency = draw(st.one_of(st.just(0.0), st.integers(1, 16).map(lambda k: GRID * k),
                             st.floats(1.0, 3000.0, allow_nan=False)))
    quantum = draw(st.one_of(st.integers(1, 4).map(lambda k: GRID * k),
                             st.floats(50.0, 500.0, allow_nan=False)))
    return name, make_topology(*cloudlets), trace, latency, quantum, draw(st.integers(0, 2**32 - 1))


def assert_matches_the_oracle(result, replay):
    assert len(result.records) == len(replay)
    for got, want in zip(result.records, replay):
        assert got.task_id == want.task_id
        assert ("cloud" if got.executor is None else str(got.executor)) == want.executor
        assert got.assign_time == want.assign_time
        assert got.start_time == want.start_time
        assert got.completion_time == want.completion_time
        assert got.delays_taken == want.delays_taken


class TestOracleOnRandomTopologies:
    @settings(max_examples=300)  # stale-read edge cases need a few hundred runs to show
    @given(oracle_runs())
    def test_whole_runs_match_the_replay_oracle(self, run):
        name, topo, trace, latency, quantum, seed = run

        def build():
            return make_scheduler(name, rng=np.random.default_rng(seed), delay_quantum=quantum)

        result = Simulation(topo, build(), probe_latency=latency).run(trace)
        replay = ReplayOracle(topo, probe_latency=latency).run(trace, build())
        assert_matches_the_oracle(result, replay)

    def test_stale_probes_at_time_zero_see_commits_at_zero(self):
        # a falsifying example of the fuzz above: with the horizon left at now - latency
        # instead of clamped to 0, task 2 sees cloudlet 1 idle and herds onto it
        topo = small_topology(vms=1, count=3)
        trace = [make_task(task_id=i, arrival_time=0.0, data_volume=0.0) for i in range(3)]

        def build():
            return make_scheduler("daa", rng=np.random.default_rng(0), delay_quantum=GRID)

        result = Simulation(topo, build(), probe_latency=GRID).run(trace)
        assert [r.executor for r in result.records] == [0, 1, 2]
        assert_matches_the_oracle(result, ReplayOracle(topo, probe_latency=GRID).run(trace, build()))

    def test_an_arrival_is_decided_before_a_wakeup_at_the_same_instant(self):
        topo = small_topology(vms=1, count=2)
        trace = [
            make_task(task_id=0, arrival_time=0.0, task_class="tolerant", latency_bound=5000.0),
            make_task(task_id=1, arrival_time=100.0),
        ]
        script = [Delay(100.0), Assign(1), Assign(0)]  # the wake-up lands at 100.0
        result = Simulation(topo, Scripted(script)).run(trace)
        assert [(d.time, d.task_id) for d in result.decisions] == [(0.0, 0), (100.0, 1), (100.0, 0)]
        assert [(d.time, d.kind, d.task_id) for d in result.decisions] == [
            (0.0, ARRIVAL, 0), (100.0, ARRIVAL, 1), (100.0, DELAY_EXPIRED, 0)]
        assert [r.executor for r in result.records] == [0, 1]
        assert_matches_the_oracle(result, ReplayOracle(topo).run(trace, Scripted(script)))
