"""Run-level metrics: weighted turnaround, speedup, makespans."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import make_cloudlet, make_topology
from petrel.engine import TaskRecord
from petrel.metrics import RunSummary, summarize
from petrel.model import EdgeCloud, TaskClass


def record(
    task_id=0,
    cloudlet=0,
    completion=1000.0,
    turnaround=1000.0,
    service=1000.0,
    speedup=1.0,
    violated=None,
):
    return TaskRecord(
        task_id=task_id,
        task_class=TaskClass.LATENCY_SENSITIVE if violated is None else TaskClass.LATENCY_TOLERANT,
        daemon_id=cloudlet if cloudlet is not None else 0,
        executor=cloudlet,
        arrival_time=0.0,
        assign_time=0.0,
        start_time=0.0,
        completion_time=completion,
        turnaround=turnaround,
        service_time=service,
        speedup=speedup,
        delays_taken=0,
        bound_violated=violated,
    )


def topology(*ids):
    return make_topology(*(make_cloudlet(i) for i in ids))


class TestTaskRecord:
    def test_positional_and_keyword_records_agree(self):
        by_keyword = record(3, cloudlet=1, completion=900.0, turnaround=800.0, service=400.0)
        positional = TaskRecord(3, TaskClass.LATENCY_SENSITIVE, 1, 1, 0.0,
                                0.0, 0.0, 900.0, 800.0, 400.0, 1.0, 0, None)
        assert positional == by_keyword
        assert TaskRecord._fields == (
            "task_id", "task_class", "daemon_id", "executor", "arrival_time", "assign_time",
            "start_time", "completion_time", "turnaround", "service_time", "speedup",
            "delays_taken", "bound_violated")
        assert positional.weighted_turnaround == 2.0

    def test_records_are_immutable(self):
        with pytest.raises(AttributeError):
            record().turnaround = 1.0


class TestAwt:
    def test_mean_of_weighted_turnarounds(self):
        records = [
            record(0, turnaround=1000.0, service=1000.0),
            record(1, turnaround=2000.0, service=1000.0),
        ]
        assert summarize(records, topology(0)).awt == 1.5

    def test_weights_divide_by_the_actual_service_time(self):
        records = [
            record(0, turnaround=4000.0, service=2000.0),
            record(1, turnaround=3000.0, service=1000.0),
        ]
        assert summarize(records, topology(0)).awt == 2.5

    def test_instant_service_is_the_floor(self):
        assert summarize([record(0, turnaround=777.0, service=777.0)], topology(0)).awt == 1.0

    def test_rejects_empty_and_bad_service(self):
        with pytest.raises(ValueError, match="^awt of an empty record list$"):
            summarize([], topology(0))
        with pytest.raises(ValueError, match="^task 0 has non-positive service time$"):
            summarize([record(0, service=0.0)], topology(0))

    def test_permutation_invariant(self):
        records = [record(i, turnaround=100.0 * (i + 1), service=50.0) for i in range(9)]
        shuffled = records[:]
        random.Random(4).shuffle(shuffled)
        assert summarize(shuffled, topology(0)).awt == pytest.approx(
            summarize(records, topology(0)).awt)


class TestAverageSpeedup:
    def test_arithmetic_mean(self):
        records = [record(0, speedup=5.0), record(1, speedup=3.0)]
        assert summarize(records, topology(0)).avg_speedup == 4.0

    def test_speedups_add_left_to_right(self):
        # 1e-16 is below half an ulp of 1.0, so each add leaves 1.0; a compensated
        # sum, as sum() of floats is from Python 3.12, would keep them
        records = [record(i, speedup=s) for i, s in enumerate([1.0, 1e-16, 1e-16])]
        assert summarize(records, topology(0)).avg_speedup == 1.0 / 3


class TestMakespans:
    def test_order_statistics_over_cloudlets(self):
        records = [
            record(0, cloudlet=0, completion=10.0),
            record(1, cloudlet=1, completion=20.0),
            record(2, cloudlet=2, completion=30.0),
        ]
        summary = summarize(records, topology(0, 1, 2))
        assert (summary.makespan_min, summary.makespan_max, summary.makespan_avg) == (
            10.0, 30.0, 20.0)
        assert summary.per_cloudlet_makespan == {0: 10.0, 1: 20.0, 2: 30.0}

    def test_last_completion_wins_per_cloudlet(self):
        records = [
            record(0, cloudlet=0, completion=500.0),
            record(1, cloudlet=0, completion=300.0),
        ]
        summary = summarize(records, topology(0))
        assert summary.per_cloudlet_makespan[0] == 500.0
        assert summary.makespan_max == 500.0

    def test_idle_cloudlets_count_as_zero(self):
        records = [record(0, cloudlet=1, completion=800.0)]
        summary = summarize(records, topology(0, 1))
        assert summary.makespan_min == 0.0
        assert summary.per_cloudlet_makespan[0] == 0.0
        assert summary.makespan_avg == 400.0

    def test_cloud_tasks_are_left_out(self):
        records = [
            record(0, cloudlet=0, completion=100.0),
            record(1, cloudlet=None, completion=99_999.0),
        ]
        assert summarize(records, topology(0)).makespan_max == 100.0

    def test_unknown_cloudlet_is_an_error(self):
        with pytest.raises(ValueError, match="^task 0 ran on unknown cloudlet 9$"):
            summarize([record(0, cloudlet=9)], topology(0, 1))

    def test_empty_cloudlet_set_is_an_error(self):
        with pytest.raises(ValueError, match="^makespans over an empty cloudlet set$"):
            summarize([record(0, cloudlet=None)], EdgeCloud(()))

    def test_only_cloud_records_means_all_idle(self):
        summary = summarize([record(0, cloudlet=None)], topology(0, 1))
        assert (summary.makespan_min, summary.makespan_max, summary.makespan_avg) == (
            0.0, 0.0, 0.0)

    def test_makespans_add_left_to_right(self):
        records = [record(i, cloudlet=i, completion=c) for i, c in enumerate([1.0, 1e-16, 1e-16])]
        assert summarize(records, topology(0, 1, 2)).makespan_avg == 1.0 / 3

    def test_the_mean_of_equal_makespans_is_their_value(self):
        # 0.1 + 0.1 + 0.1 rounds up to 0.30000000000000004, and a third of that is above 0.1
        records = [record(i, cloudlet=i, completion=0.1) for i in range(3)]
        summary = summarize(records, topology(0, 1, 2))
        assert (summary.makespan_min, summary.makespan_max, summary.makespan_avg) == (0.1, 0.1, 0.1)

    @given(st.lists(st.floats(0.0, 1e308), min_size=1, max_size=8))
    def test_the_mean_lies_between_the_extremes(self, completions):
        # the rounded sum of large makespans can even overflow to inf
        records = [record(i, cloudlet=i, completion=c) for i, c in enumerate(completions)]
        summary = summarize(records, topology(*range(len(completions))))
        assert summary.makespan_min <= summary.makespan_avg <= summary.makespan_max


class TestFaultOrder:
    def test_an_empty_topology_is_named_before_empty_records(self):
        with pytest.raises(ValueError, match="^makespans over an empty cloudlet set$"):
            summarize([], EdgeCloud(()))

    def test_the_first_faulty_record_is_named_and_its_cloudlet_first(self):
        both = record(0, cloudlet=9, service=0.0)
        with pytest.raises(ValueError, match="^task 0 ran on unknown cloudlet 9$"):
            summarize([both], topology(0))
        with pytest.raises(ValueError, match="^task 1 has non-positive service time$"):
            summarize([record(0), record(1, service=0.0), record(2, cloudlet=9)], topology(0))


class TestSummarize:
    def test_rolls_everything_up(self):
        records = [
            record(0, cloudlet=0, completion=10.0, turnaround=100.0, service=50.0,
                   speedup=5.0, violated=False),
            record(1, cloudlet=1, completion=30.0, turnaround=300.0, service=100.0,
                   speedup=3.0, violated=True),
        ]
        summary = summarize(records, topology(0, 1))
        assert summary.task_count == 2
        assert summary.awt == 2.5
        assert summary.avg_speedup == 4.0
        assert (summary.makespan_min, summary.makespan_max) == (10.0, 30.0)
        assert summary.makespan_avg == 20.0
        assert summary.bound_violations == 1
        assert summary.per_cloudlet_makespan == {0: 10.0, 1: 30.0}

    def test_only_true_flags_count_as_violations(self):
        records = [
            record(0, violated=None),
            record(1, violated=False),
            record(2, violated=True),
            record(3, violated=True),
        ]
        assert summarize(records, topology(0)).bound_violations == 2

    def test_summary_rejects_inconsistent_makespans(self):
        with pytest.raises(ValueError):
            RunSummary(
                task_count=1, awt=1.0, avg_speedup=1.0,
                makespan_min=5.0, makespan_max=1.0, makespan_avg=3.0,
                bound_violations=0,
            )

    def test_permutation_invariant(self):
        records = [
            record(i, cloudlet=i % 2, completion=10.0 * i + 5.0,
                   turnaround=100.0 + i, service=50.0, speedup=1.0 + i)
            for i in range(10)
        ]
        shuffled = records[:]
        random.Random(9).shuffle(shuffled)
        a = summarize(records, topology(0, 1))
        b = summarize(shuffled, topology(0, 1))
        assert b.awt == pytest.approx(a.awt)
        assert b.avg_speedup == pytest.approx(a.avg_speedup)
        assert (b.makespan_min, b.makespan_max, b.makespan_avg) == (
            a.makespan_min, a.makespan_max, a.makespan_avg,
        )
        assert b.per_cloudlet_makespan == a.per_cloudlet_makespan
