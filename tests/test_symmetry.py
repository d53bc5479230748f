"""Whole runs under a change of units or of labels that must leave them alone,
and greedy against the one queue it must equal.

No check here shares the engine's design, as the replay oracle does.  Two
state a symmetry of the model itself (metamorphic testing, Chen et al.,
ACM CSUR 2018) and run every policy, with fresh and with stale probes.
The third states an exact queueing relation: least-work-left routing over
equal servers is one FCFS queue with that many servers (Harchol-Balter,
*Performance Modeling and Design of Computer Systems*, 2013).
"""

from dataclasses import replace
import itertools

from hypothesis import given
from hypothesis import strategies as st
import pytest

from petrel import workload
from petrel.config import EdgeCloudConfig, build_topology
from petrel.engine import simulate
from petrel.model import Cloudlet, EdgeCloud, Task
from petrel.schedulers import SCHEDULER_NAMES
from petrel.workload import Benchmark, TaskClass, generate_trace

LATENCIES = (0.0, EdgeCloudConfig().probe_latency_ms)  # fresh probes, and the default lag
RATES = (1.0, 4.0, 6.0)
SEEDS = (1, 2, 3)


def config_at(rate, latency):
    return EdgeCloudConfig(task_count=300, arrival_rate=rate, probe_latency_ms=latency)


def scaled(config, k):
    """``config`` with every time input times ``k``: the mean arrival gap (the rate
    over ``k``), the RTTs, the probe latency, and each entry's times and data size (a
    transfer takes data / bandwidth).  The delay quantum and the bounds follow from
    the entries."""
    low, high = config.remote_rtt_range_ms
    return config.override(
        arrival_rate=config.arrival_rate / k,
        daemon_rtt_ms=config.daemon_rtt_ms * k,
        remote_rtt_range_ms=(low * k, high * k),
        cloud_rtt_ms=config.cloud_rtt_ms * k,
        probe_latency_ms=config.probe_latency_ms * k,
        catalog=tuple(replace(b, base_service_ms=b.base_service_ms * k, mobile_ms=b.mobile_ms * k,
                              cloud_ms=b.cloud_ms * k, data_bytes=b.data_bytes * k)
                      for b in config.catalog),
    )


@pytest.fixture
def no_arrival_nudge(monkeypatch):
    """Fail the test if ``generate_arrivals`` moves an arrival one float step up, after
    a gap that underflowed to 0: a float step does not scale with the times."""

    def nudge(*args):
        raise AssertionError("generate_arrivals nudged an arrival with nextafter")

    monkeypatch.setattr(workload, "nextafter", nudge)


@pytest.mark.parametrize("latency", LATENCIES)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_times_scaled_by_a_power_of_two_scale_every_record(name, latency, no_arrival_nudge):
    # a power of two commutes with float rounding, so the scaling is exact
    for rate, seed in itertools.product(RATES, SEEDS):
        config = config_at(rate, latency)
        want = simulate(config, generate_trace(config, seed), name, seed).records
        for k in (0.25, 1024.0):
            config_k = scaled(config, k)
            got = simulate(config_k, generate_trace(config_k, seed), name, seed).records
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.arrival_time, g.assign_time, g.start_time, g.completion_time,
                        g.turnaround, g.service_time) == (
                    k * w.arrival_time, k * w.assign_time, k * w.start_time,
                    k * w.completion_time, k * w.turnaround, k * w.service_time)
                assert (g.task_id, g.task_class, g.daemon_id, g.executor, g.speedup,
                        g.delays_taken, g.bound_violated, g.weighted_turnaround) == (
                    w.task_id, w.task_class, w.daemon_id, w.executor, w.speedup,
                    w.delays_taken, w.bound_violated, w.weighted_turnaround)


def label(cloudlet_id):
    """An order-preserving relabel of the cloudlet ids."""
    return 3 * cloudlet_id + 7


@pytest.mark.parametrize("latency", LATENCIES)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_an_order_preserving_relabel_relabels_every_record(name, latency):
    # tie rules, peer order and round-robin read the order of the ids, not their values
    for rate, seed in itertools.product(RATES, SEEDS):
        config = config_at(rate, latency)
        topology, trace = build_topology(config, seed), generate_trace(config, seed)
        relabeled = EdgeCloud(tuple(
            Cloudlet(label(c.id), c.vm_count, c.speed_factor,
                     replace(c.net, remote_rtt={label(j): rtt for j, rtt in c.net.remote_rtt.items()}))
            for c in topology))
        moved = [Task(t.id, t.arrival_time, label(t.daemon_id), t.profile) for t in trace]
        want = simulate(config, trace, name, seed, topology=topology).records
        got = simulate(config, moved, name, seed, topology=relabeled).records
        assert got == [w._replace(daemon_id=label(w.daemon_id),
                                  executor=None if w.executor is None else label(w.executor))
                       for w in want]


times = st.floats(1.0, 5000.0, allow_nan=False)


@st.composite
def catalogs(draw):
    """One to three benchmarks of either class, with any sizes, data and weights."""
    catalog = []
    for i in range(draw(st.integers(1, 3))):
        tolerant = draw(st.booleans())
        catalog.append(Benchmark(
            f"b{i}", TaskClass.LATENCY_TOLERANT if tolerant else TaskClass.LATENCY_SENSITIVE,
            draw(times), draw(times), draw(times), draw(st.floats(0.0, 1e6, allow_nan=False)),
            bound_factor=draw(st.floats(1.5, 10.0)) if tolerant else None,
            weight=draw(st.floats(0.1, 10.0))))
    return tuple(catalog)


@given(catalog=catalogs(), n=st.integers(2, 10), rate=st.floats(0.25, 8.0),
       speed=st.floats(0.25, 4.0), seed=st.integers(0, 10_000))
def test_fresh_greedy_over_equal_single_vm_cloudlets_is_one_multi_vm_queue(
        catalog, n, rate, speed, seed):
    # with no RTT every executor charges the same transfer, so greedy takes the cloudlet
    # that is ready first, as one cloudlet of n VMs takes its earliest-ready VM
    config = EdgeCloudConfig(cloudlet_count=n, vm_counts=(1,) * n, speed_factors=(speed,) * n,
                             daemon_rtt_ms=0.0, remote_rtt_range_ms=(0.0, 0.0),
                             probe_latency_ms=0.0, task_count=300, arrival_rate=rate,
                             catalog=catalog)
    trace = generate_trace(config, seed)
    spread = simulate(config, trace, "greedy", seed).records
    pooled_config = config.override(cloudlet_count=1, vm_counts=(n,), speed_factors=(speed,))
    pooled = simulate(pooled_config, [Task(t.id, t.arrival_time, 0, t.profile) for t in trace],
                      "daemon-only", seed).records
    assert [(r.start_time, r.completion_time) for r in spread] == [
        (r.start_time, r.completion_time) for r in pooled]
