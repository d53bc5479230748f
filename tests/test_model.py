"""Completion-time identities for every execution site."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import make_cloudlet, make_net, make_task
from petrel.model import (
    CompletionBreakdown,
    Task,
    TaskClass,
    completion_time_cloud,
    completion_time_daemon,
    completion_time_mobile,
    completion_time_remote,
    speedup,
)


class TestMobile:
    def test_equals_device_exec_time(self):
        assert completion_time_mobile(make_task(mobile_exec_time=1000.0)).total == 1000.0
        assert completion_time_mobile(make_task(mobile_exec_time=250.0)).total == 250.0

    def test_no_wait_no_comm(self):
        bd = completion_time_mobile(make_task(mobile_exec_time=42.0))
        assert bd.wait == 0.0
        assert bd.comm == 0.0
        assert bd.exec == 42.0


class TestCloud:
    def test_exec_plus_transfer_plus_rtt(self):
        task = make_task(cloud_exec_time=2000.0, data_volume=1000.0)
        net = make_net(cloud_bandwidth=1.0, cloud_rtt=500.0)
        assert completion_time_cloud(task, net).total == 3500.0

        task = make_task(cloud_exec_time=200.0, data_volume=800.0)
        net = make_net(cloud_bandwidth=4.0, cloud_rtt=100.0)
        assert completion_time_cloud(task, net).total == 500.0

    def test_never_waits(self):
        bd = completion_time_cloud(make_task(), make_net())
        assert bd.wait == 0.0

    def test_zero_data_pays_only_rtt_and_exec(self):
        task = make_task(cloud_exec_time=300.0, data_volume=0.0)
        bd = completion_time_cloud(task, make_net(cloud_rtt=50.0))
        assert bd.total == 350.0


class TestDaemon:
    def test_all_four_terms(self):
        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        node = make_cloudlet(net=make_net(daemon_rtt=10.0, cloudlet_bandwidth=12500.0))
        bd = completion_time_daemon(task, node, wait=500.0)
        assert bd.exec == 1000.0
        assert bd.wait == 500.0
        assert bd.comm == 210.0
        assert bd.total == 1710.0

    def test_speed_factor_divides_execution(self):
        task = make_task(base_service_time=1000.0, data_volume=0.0)
        node = make_cloudlet(speed_factor=2.0, net=make_net(daemon_rtt=10.0))
        bd = completion_time_daemon(task, node, wait=0.0)
        assert bd.exec == 500.0
        assert bd.total == 510.0

    def test_rejects_negative_wait(self):
        with pytest.raises(ValueError):
            completion_time_daemon(make_task(), make_cloudlet(), wait=-1.0)


class TestRemote:
    def test_costs_one_extra_round_trip(self):
        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        net = make_net(daemon_rtt=10.0, cloudlet_bandwidth=12500.0, remote_rtt=60.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        bd = completion_time_remote(task, daemon, executor, wait=500.0)
        assert bd.total == 1770.0

    def test_component_sum(self):
        task = make_task(base_service_time=1000.0, data_volume=12500.0)
        net = make_net(daemon_rtt=10.0, cloudlet_bandwidth=125.0, remote_rtt=50.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        bd = completion_time_remote(task, daemon, executor, wait=0.0)
        assert bd.exec == 1000.0
        assert bd.comm == 160.0
        assert bd.total == 1160.0

    def test_remote_minus_daemon_is_pair_rtt(self):
        # powers of two keep the float sums exact
        task = make_task(base_service_time=512.0, data_volume=4096.0)
        net = make_net(daemon_rtt=8.0, cloudlet_bandwidth=64.0, remote_rtt=32.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)
        local = completion_time_daemon(task, daemon, wait=16.0)
        remote = completion_time_remote(task, daemon, executor, wait=16.0)
        assert remote.total - local.total == 32.0

    def test_rejects_self_redirect(self):
        daemon = make_cloudlet(0)
        with pytest.raises(ValueError):
            completion_time_remote(make_task(), daemon, daemon, wait=0.0)

    def test_per_target_rtt_mapping(self):
        net = make_net(remote_rtt={1: 50.0, 2: 70.0})
        task = make_task(data_volume=0.0, base_service_time=100.0)
        daemon = make_cloudlet(0, net=net)
        near = completion_time_remote(task, daemon, make_cloudlet(1, net=net), wait=0.0)
        far = completion_time_remote(task, daemon, make_cloudlet(2, net=net), wait=0.0)
        assert far.total - near.total == 20.0


class TestBreakdown:
    def test_total_is_component_sum(self):
        bd = CompletionBreakdown(exec=3.0, wait=2.0, comm=1.0)
        assert bd.total == 6.0

    def test_wait_shift_moves_total_by_delta(self):
        task = make_task(base_service_time=1000.0, data_volume=0.0)
        node = make_cloudlet(net=make_net(daemon_rtt=16.0))
        base = completion_time_daemon(task, node, wait=0.0)
        shifted = completion_time_daemon(task, node, wait=256.0)
        assert shifted.total - base.total == 256.0

    @given(
        exec_time=st.floats(1.0, 1e6),
        wait=st.floats(0.0, 1e6),
        comm=st.floats(0.0, 1e6),
    )
    def test_total_within_one_ulp_of_sum(self, exec_time, wait, comm):
        bd = CompletionBreakdown(exec=exec_time, wait=wait, comm=comm)
        expected = exec_time + wait + comm
        assert abs(bd.total - expected) <= math.ulp(expected)


class TestSpeedup:
    def test_ratio_of_device_time_to_completion(self):
        task = make_task(mobile_exec_time=10000.0)
        assert speedup(task, 2000.0) == 5.0

    def test_mobile_allocation_is_exactly_one(self):
        task = make_task(mobile_exec_time=777.0)
        completion = completion_time_mobile(task).total
        assert speedup(task, completion) == 1.0

    def test_below_one_when_offloading_hurts(self):
        task = make_task(mobile_exec_time=3000.0)
        assert speedup(task, 6000.0) == 0.5

    def test_rejects_nonpositive_completion(self):
        with pytest.raises(ValueError):
            speedup(make_task(), 0.0)


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
        with pytest.raises(ValueError, match="^base_service_time must be finite"):
            make_task(base_service_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mobile_exec_time(self, bad):
        with pytest.raises(ValueError, match="^mobile_exec_time must be finite"):
            make_task(mobile_exec_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_cloud_exec_time(self, bad):
        with pytest.raises(ValueError, match="^cloud_exec_time must be finite"):
            make_task(cloud_exec_time=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_data_volume(self, bad):
        with pytest.raises(ValueError, match="^data_volume must be finite"):
            make_task(data_volume=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_latency_bound(self, bad):
        with pytest.raises(ValueError, match="^latency_bound must be finite"):
            make_task(task_class="tolerant", latency_bound=bad)

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
        with pytest.raises(ValueError, match="remote_rtt entries must be finite"):
            make_net(remote_rtt={1: 60.0, 2: math.inf})


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
    bd = completion_time_remote(task, daemon, executor, wait=wait)
    expected = base / speed + wait + (data / bandwidth + daemon_rtt + pair_rtt)
    assert bd.total == pytest.approx(expected, rel=1e-12)
