"""Completion-time identities for every execution site."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import cloudlet_completion, make_cloudlet, make_net, make_task, make_topology
from petrel.engine import Simulation
from petrel.model import Profile, TaskClass, cloud_times, placement_times, speedup
from petrel.schedulers import CloudOnlyScheduler, DaemonOnlyScheduler


class TestMobile:
    def test_equals_device_exec_time(self):
        for mobile in (1000.0, 250.0):
            task = make_task(mobile_exec_time=mobile)
            assert task.profile.mobile_exec_time == mobile
            assert speedup(task, mobile) == 1.0

    def test_no_wait_no_comm(self):
        # the device runs the task itself: no queue and no transfer, whatever the input size
        for data_volume in (0.0, 1e9):
            task = make_task(mobile_exec_time=42.0, data_volume=data_volume)
            assert task.profile.mobile_exec_time == 42.0
            assert speedup(task, 42.0) == 1.0


class TestCloud:
    def test_exec_plus_transfer_plus_rtt(self):
        task = make_task(cloud_exec_time=2000.0, data_volume=1000.0)
        exec_time, comm = cloud_times(task.profile, make_net(cloud_bandwidth=1.0, cloud_rtt=500.0))
        assert exec_time + comm == 3500.0

        task = make_task(cloud_exec_time=200.0, data_volume=800.0)
        exec_time, comm = cloud_times(task.profile, make_net(cloud_bandwidth=4.0, cloud_rtt=100.0))
        assert exec_time + comm == 500.0

    def test_never_waits(self):
        # tasks that arrive together all start at once on the cloud
        topo = make_topology()
        trace = [make_task(task_id=i, daemon_id=i % 3, arrival_time=100.0) for i in range(6)]
        records = Simulation(topo, CloudOnlyScheduler()).run(trace).records
        for task, record in zip(trace, records):
            exec_time, comm = cloud_times(task.profile, topo.get(task.daemon_id).net)
            assert record.start_time == task.arrival_time
            assert record.completion_time == task.arrival_time + exec_time + comm

    def test_zero_data_pays_only_rtt_and_exec(self):
        task = make_task(cloud_exec_time=300.0, data_volume=0.0)
        exec_time, comm = cloud_times(task.profile, make_net(cloud_rtt=50.0))
        assert exec_time + comm == 350.0

    @pytest.mark.parametrize("data_volume, comm", [(0.0, 50.0), (1000.0, 51.25),
                                                   (2_500_000.0, 3175.0)])
    def test_cloud_times_is_exec_and_transfer_plus_rtt(self, data_volume, comm):
        task = make_task(cloud_exec_time=300.0, data_volume=data_volume)
        net = make_net(cloud_bandwidth=800.0, cloud_rtt=50.0)
        assert cloud_times(task.profile, net) == (300.0, comm)


class TestDaemon:
    def test_all_four_terms(self):
        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        node = make_cloudlet(net=make_net(daemon_rtt=10.0, cloudlet_bandwidth=12500.0))
        assert placement_times(task.profile, node, node) == (1000.0, 210.0)
        assert cloudlet_completion(task, node, node, wait=500.0) == 1710.0

    def test_speed_factor_divides_execution(self):
        task = make_task(base_service_time=1000.0, data_volume=0.0)
        node = make_cloudlet(speed_factor=2.0, net=make_net(daemon_rtt=10.0))
        exec_time, _ = placement_times(task.profile, node, node)
        assert exec_time == 500.0
        assert cloudlet_completion(task, node, node, wait=0.0) == 510.0

    def test_wait_shift_moves_total_by_delta(self):
        task = make_task(base_service_time=1000.0, data_volume=0.0)
        node = make_cloudlet(net=make_net(daemon_rtt=16.0))
        base = cloudlet_completion(task, node, node, wait=0.0)
        shifted = cloudlet_completion(task, node, node, wait=256.0)
        assert shifted - base == 256.0


class TestRemote:
    def test_costs_one_extra_round_trip(self):
        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        net = make_net(daemon_rtt=10.0, cloudlet_bandwidth=12500.0, remote_rtt=60.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        assert cloudlet_completion(task, daemon, executor, wait=500.0) == 1770.0

    def test_component_sum(self):
        task = make_task(base_service_time=1000.0, data_volume=12500.0)
        net = make_net(daemon_rtt=10.0, cloudlet_bandwidth=125.0, remote_rtt=50.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        assert placement_times(task.profile, daemon, executor) == (1000.0, 160.0)
        assert cloudlet_completion(task, daemon, executor, wait=0.0) == 1160.0

    def test_remote_minus_daemon_is_pair_rtt(self):
        # powers of two keep the float sums exact
        task = make_task(base_service_time=512.0, data_volume=4096.0)
        net = make_net(daemon_rtt=8.0, cloudlet_bandwidth=64.0, remote_rtt=32.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        local = cloudlet_completion(task, daemon, daemon, wait=16.0)
        remote = cloudlet_completion(task, daemon, executor, wait=16.0)
        assert remote - local == 32.0

    def test_per_target_rtt_mapping(self):
        net = make_net(remote_rtt={1: 50.0, 2: 70.0})
        task = make_task(data_volume=0.0, base_service_time=100.0)
        daemon = make_cloudlet(0, net=net)
        near = cloudlet_completion(task, daemon, make_cloudlet(1, net=net), wait=0.0)
        far = cloudlet_completion(task, daemon, make_cloudlet(2, net=net), wait=0.0)
        assert far - near == 20.0


class TestSpeedup:
    def test_ratio_of_device_time_to_completion(self):
        task = make_task(mobile_exec_time=10000.0)
        assert speedup(task, 2000.0) == 5.0

    def test_mobile_allocation_is_exactly_one(self):
        task = make_task(mobile_exec_time=777.0)
        assert speedup(task, task.profile.mobile_exec_time) == 1.0

    def test_below_one_when_offloading_hurts(self):
        task = make_task(mobile_exec_time=3000.0)
        assert speedup(task, 6000.0) == 0.5

    def test_rejects_nonpositive_completion(self):
        with pytest.raises(ValueError):
            speedup(make_task(), 0.0)

    def test_takes_the_turnaround_and_names_it(self):
        task = make_task(arrival_time=1000.0, mobile_exec_time=10000.0)
        assert speedup(task, turnaround=2000.0) == 5.0
        with pytest.raises(ValueError, match="^turnaround must be > 0$"):
            speedup(task, turnaround=-1.0)


class TestTaskValidation:
    def test_tolerant_requires_bound(self):
        with pytest.raises(ValueError):
            make_task(task_class="tolerant")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_arrival_time(self, bad):
        with pytest.raises(ValueError, match="task 0: arrival_time must be finite"):
            make_task(arrival_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_base_service_time(self, bad):
        with pytest.raises(ValueError, match="^base_service_ms must be finite$"):
            make_task(base_service_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mobile_exec_time(self, bad):
        with pytest.raises(ValueError, match="^mobile_ms must be finite$"):
            make_task(mobile_exec_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_cloud_exec_time(self, bad):
        with pytest.raises(ValueError, match="^cloud_ms must be finite$"):
            make_task(cloud_exec_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_data_volume(self, bad):
        with pytest.raises(ValueError, match="^data_bytes must be finite$"):
            make_task(data_volume=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_latency_bound(self, bad):
        with pytest.raises(ValueError, match="^bound_ms must be finite$"):
            make_task(task_class="tolerant", latency_bound=bad)

    @pytest.mark.parametrize("changes, message", [
        (dict(base_service_time=0.0, mobile_exec_time=math.inf), "base_service_ms must be > 0"),
        (dict(mobile_exec_time=-1.0, data_volume=math.nan), "mobile_ms must be > 0"),
        (dict(cloud_exec_time=math.nan, data_volume=-1.0), "cloud_ms must be finite"),
        (dict(data_volume=-1.0, task_class="tolerant", latency_bound=math.inf),
         "data_bytes must be >= 0"),
    ])
    def test_two_faults_report_the_first_in_column_order(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_task(**changes)

    def test_replace_checks_the_arrival(self):
        task = make_task(arrival_time=5.0)
        assert task._replace(arrival_time=7.0) == make_task(arrival_time=7.0)
        with pytest.raises(ValueError, match="task 0: arrival_time must be >= 0"):
            task._replace(arrival_time=-1.0)

    def test_tasks_compare_by_profile_value(self):
        a, b = make_task(task_id=0), make_task(task_id=0)
        assert a.profile is not b.profile
        assert a == b and hash(a) == hash(b)

    def test_sensitive_forbids_bound(self):
        with pytest.raises(ValueError):
            make_task(task_class="sensitive", latency_bound=1000.0)

    def test_deadline_is_arrival_plus_bound(self):
        task = make_task(task_class="tolerant", arrival_time=300.0, latency_bound=1200.0)
        assert task.deadline == 1500.0
        assert make_task().deadline is None

    def test_class_tokens_round_trip(self):
        assert TaskClass.from_token("sensitive") is TaskClass.LATENCY_SENSITIVE
        assert TaskClass.from_token("tolerant") is TaskClass.LATENCY_TOLERANT
        with pytest.raises(ValueError):
            TaskClass.from_token("urgent")

    @pytest.mark.parametrize("task_class", ["sensitive", "tolerant", None])
    def test_a_profile_takes_only_a_task_class(self, task_class):
        # a token would pass as sensitive, and its trace would not save
        with pytest.raises(ValueError, match=f"^class must be a TaskClass, got {task_class!r}$"):
            Profile("x", task_class, 1000.0, 5000.0, 800.0, 0.0)

    @pytest.mark.parametrize("name, message", [
        (5, "expected str, got 5"), (None, "expected str, got None"),
        ("a,b", "expected no ',', '\"', CR or LF, got 'a,b'"),
        ('a"b', "expected no ',', '\"', CR or LF, got 'a\"b'"),
        ("a\rb", "expected no ',', '\"', CR or LF, got 'a\\rb'"),
        ("a\nb", "expected no ',', '\"', CR or LF, got 'a\\nb'")],
        ids=["int", "none", "comma", "quote", "cr", "lf"])
    def test_a_name_is_a_str_with_no_comma_quote_cr_or_lf(self, name, message):
        # a name written as 5 would load back as '5', and the four characters need quoting
        with pytest.raises(ValueError) as caught:
            Profile(name, TaskClass.LATENCY_SENSITIVE, 1.0, 2.0, 1.0, 0.0)
        assert str(caught.value) == f"benchmark name: {message}"

    def test_the_name_is_checked_first(self):
        with pytest.raises(ValueError, match="^benchmark name: "):
            Profile("a,b", "sensitive", -1.0, 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("token", ["urgent", "", "Sensitive", None, ["tolerant"]])
    def test_unknown_class_tokens_name_the_choices(self, token):
        with pytest.raises(ValueError, match="unknown task class .*'sensitive' or 'tolerant'"):
            TaskClass.from_token(token)


class TestNetworkValidation:
    @pytest.mark.parametrize("field", ["daemon_rtt", "cloudlet_bandwidth", "cloud_rtt",
                                       "cloud_bandwidth", "remote_rtt"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_scalars(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_net(**{field: bad})

    def test_rejects_non_finite_remote_rtt_entries(self):
        with pytest.raises(ValueError, match=r"^remote_rtt\[2\] must be finite$"):
            make_net(remote_rtt={1: 60.0, 2: math.inf})

    @pytest.mark.parametrize("changes, message", [
        (dict(daemon_rtt=-1.0), "daemon_rtt must be >= 0"),
        (dict(cloud_rtt=-1.0), "cloud_rtt must be >= 0"),
        (dict(cloudlet_bandwidth=0.0), "cloudlet_bandwidth must be > 0"),
        (dict(cloud_bandwidth=-1.0), "cloud_bandwidth must be > 0"),
        (dict(remote_rtt=-1.0), "remote_rtt must be >= 0"),
        (dict(remote_rtt={1: 60.0, 2: -1.0}), r"remote_rtt\[2\] must be >= 0"),
    ])
    def test_rejects_out_of_range_values(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_net(**changes)

    @pytest.mark.parametrize("rtt", [np.int64(5), np.float32(5.0), 5])
    def test_a_numpy_scalar_remote_rtt_applies_to_every_target(self, rtt):
        net = make_net(remote_rtt=rtt)
        assert (net.rtt_to(1), net.rtt_to(7)) == (5.0, 5.0)
        daemon, executor = make_cloudlet(0, net=net), make_cloudlet(1, net=net)
        comm = placement_times(make_task().profile, daemon, executor)[1]
        assert comm == 1_000_000.0 / 12500.0 + 10.0 + 5.0

    @pytest.mark.parametrize("rtt, message", [(np.float64(-1.0), "remote_rtt must be >= 0"),
                                              (np.float32("nan"), "remote_rtt must be finite")])
    def test_a_numpy_scalar_remote_rtt_is_checked_as_one_value(self, rtt, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_net(remote_rtt=rtt)


class TestCloudletValidation:
    @pytest.mark.parametrize("changes, message", [
        (dict(vm_count=0), "vm_count must be >= 1"),
        (dict(speed_factor=0.0), "speed_factor must be > 0"),
    ])
    def test_rejects_out_of_range_values(self, changes, message):
        with pytest.raises(ValueError, match=f"^cloudlet 3: {message}$"):
            make_cloudlet(3, **changes)

    @pytest.mark.parametrize("changes, message", [
        (dict(speed_factor=math.inf), "speed_factor must be finite"),
        (dict(speed_factor=-math.inf), "speed_factor must be finite"),
        (dict(speed_factor=math.nan), "speed_factor must be finite"),
        (dict(vm_count=2.0), "vm_count must be an int, got 2.0"),
        (dict(vm_count=1.5), "vm_count must be an int, got 1.5"),
    ])
    def test_rejects_non_finite_speed_and_non_int_vm_count(self, changes, message):
        with pytest.raises(ValueError, match=f"^cloudlet 3: {message}$"):
            make_cloudlet(3, **changes)

    def test_a_numpy_int_vm_count_is_an_int(self):
        topology = make_topology(make_cloudlet(0, vm_count=np.int64(2)))
        result = Simulation(topology, DaemonOnlyScheduler()).run((make_task(), make_task(1)))
        assert [r.start_time for r in result.records] == [0.0, 0.0]  # both VMs start at once


class TestEdgeCloudValidation:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="^duplicate cloudlet ids$"):
            make_topology(make_cloudlet(0), make_cloudlet(1), make_cloudlet(0))

    def test_get_names_an_unknown_id(self):
        with pytest.raises(KeyError, match="unknown cloudlet id 5"):
            make_topology().get(5)


@given(
    base=st.floats(1.0, 1e5),
    speed=st.floats(0.5, 8.0),
    data=st.floats(0.0, 1e8),
    bandwidth=st.floats(1.0, 1e5),
    daemon_rtt=st.floats(0.0, 1e3),
    pair_rtt=st.floats(0.0, 1e3),
    wait=st.floats(0.0, 1e5),
)
def test_remote_matches_handwritten_formula(
    base, speed, data, bandwidth, daemon_rtt, pair_rtt, wait
):
    task = make_task(base_service_time=base, data_volume=data)
    net = make_net(
        daemon_rtt=daemon_rtt, cloudlet_bandwidth=bandwidth, remote_rtt=pair_rtt
    )
    daemon = make_cloudlet(0, net=net)
    executor = make_cloudlet(1, speed_factor=speed, net=net)
    exec_time, comm = placement_times(task.profile, daemon, executor)
    assert exec_time == base / speed
    assert comm == data / bandwidth + daemon_rtt + pair_rtt
    expected = base / speed + wait + (data / bandwidth + daemon_rtt + pair_rtt)
    assert cloudlet_completion(task, daemon, executor, wait) == pytest.approx(expected, rel=1e-12)
