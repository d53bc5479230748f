"""Acceptance checklist for the simulator.

Nine criteria, one test each, run in order: completion-model
identities, decision-rule conformance, engine-vs-replay equivalence on
random small instances, the weighted-turnaround and makespan orderings
at the reference scale, the cloud-only calibration anchor, delay
safety, determinism plus sampling statistics, and the mean queue wait
of single-VM cloudlets against Pollaczek-Khinchine.  Each test prints a
status line straight to the terminal so a full run reads as a
checklist even with output capture on.
"""

import time

import numpy as np
import pytest
from scipy import stats

from fixtures import cloudlet_completion, make_cloudlet, make_net, make_task, make_topology
from petrel.cli import COMPARE_METRICS, main, run_comparison
from petrel.config import EdgeCloudConfig, build_topology
from petrel.engine import DELAY_EXPIRED, Simulation, simulate
from petrel.metrics import summarize
from petrel.model import cloud_times, speedup
from petrel.schedulers import Delay, SCHEDULER_NAMES, make_scheduler
from petrel.seeding import derive_seed, new_rng
from petrel.workload import MS_PER_SECOND, generate_arrivals, generate_trace
from replay_oracle import ReplayOracle
from sampling_reference import sample_two
from test_schedulers import DECISION_TABLE, daa_decides

BASE_SEED = 1234
LAMBDAS = (1.0, 2.0)
REPLICATES = tuple(range(1, 31))
CLOUDLET_SCHEDULERS = ("daa", "two-choices", "greedy", "round-robin", "daemon-only")


def criterion(capsys, number, label, budget_s, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def sweep():
    """The reference comparison: five cloudlet policies, 200 tasks,
    30 replicates at each arrival rate.  Shared by criteria 4 and 5."""
    config = EdgeCloudConfig()
    started = time.perf_counter()
    table = run_comparison(
        config, list(CLOUDLET_SCHEDULERS), list(LAMBDAS), list(REPLICATES), BASE_SEED
    )
    elapsed = time.perf_counter() - started
    rows = {(r["scheduler"], r["lambda"]): r for r in table}
    return rows, elapsed


def test_criterion_1_completion_model_identities(capsys):
    def body():
        net = make_net(daemon_rtt=10.0, cloudlet_bandwidth=12500.0, remote_rtt=60.0)
        daemon = make_cloudlet(0, net=net)
        executor = make_cloudlet(1, net=net)

        for mobile in (1000.0, 250.0):
            assert make_task(mobile_exec_time=mobile).profile.mobile_exec_time == mobile

        cloud_net = make_net(cloud_bandwidth=1.0, cloud_rtt=500.0)
        task = make_task(cloud_exec_time=2000.0, data_volume=1000.0)
        exec_time, comm = cloud_times(task.profile, cloud_net)
        assert exec_time + comm == 3500.0
        cloud_net = make_net(cloud_bandwidth=4.0, cloud_rtt=100.0)
        task = make_task(cloud_exec_time=200.0, data_volume=800.0)
        exec_time, comm = cloud_times(task.profile, cloud_net)
        assert exec_time + comm == 500.0

        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        assert cloudlet_completion(task, daemon, daemon, wait=500.0) == 1710.0
        fast = make_cloudlet(0, speed_factor=2.0, net=net)
        lean = make_task(base_service_time=1000.0, data_volume=0.0)
        assert cloudlet_completion(lean, fast, fast, wait=0.0) == 510.0

        task = make_task(base_service_time=1000.0, data_volume=2_500_000.0)
        assert cloudlet_completion(task, daemon, executor, wait=500.0) == 1770.0

        # the redirect surcharge is exactly the pair round trip
        two = make_net(daemon_rtt=8.0, cloudlet_bandwidth=64.0, remote_rtt=32.0)
        d2, e2 = make_cloudlet(0, net=two), make_cloudlet(1, net=two)
        probe = make_task(base_service_time=512.0, data_volume=4096.0)
        local = cloudlet_completion(probe, d2, d2, wait=16.0)
        remote = cloudlet_completion(probe, d2, e2, wait=16.0)
        assert remote - local == 32.0

        assert speedup(make_task(mobile_exec_time=10000.0), 2000.0) == 5.0
        stay = make_task(mobile_exec_time=777.0)
        assert speedup(stay, stay.profile.mobile_exec_time) == 1.0
        assert speedup(make_task(mobile_exec_time=3000.0), 6000.0) == 0.5

    criterion(capsys, 1, "completion-model identities", 1.0, body)


def test_criterion_2_decision_rule_conformance(capsys):
    def body():
        assert len(DECISION_TABLE) >= 20
        for label, task, daemon_probe, candidates, delayed, expected in DECISION_TABLE:
            got, _ = daa_decides(task, daemon_probe, candidates, delayed)
            assert got == expected, f"case {label!r}: got {got}, expected {expected}"
        kinds = {type(case[-1]).__name__ for case in DECISION_TABLE}
        assert kinds == {"Assign", "Delay"}

    criterion(capsys, 2, "adaptive decision-rule conformance", 1.0, body)


def random_instance(rng):
    """One small random scenario: topology, trace, and knob settings."""
    n = int(rng.integers(2, 4))
    cloudlets = []
    for i in range(n):
        remote = {j: float(rng.uniform(20.0, 100.0)) for j in range(n) if j != i}
        net = make_net(
            daemon_rtt=float(rng.uniform(0.0, 20.0)),
            cloudlet_bandwidth=float(rng.uniform(5_000.0, 20_000.0)),
            cloud_rtt=float(rng.uniform(100.0, 400.0)),
            cloud_bandwidth=float(rng.uniform(500.0, 2_000.0)),
            remote_rtt=remote,
        )
        cloudlets.append(
            make_cloudlet(
                i,
                vm_count=int(rng.integers(1, 3)),
                speed_factor=float(rng.uniform(0.5, 2.0)),
                net=net,
            )
        )
    topology = make_topology(*cloudlets)

    trace = []
    now = 0.0
    for i in range(int(rng.integers(0, 11))):
        if i > 0 and rng.random() < 0.2:
            pass  # simultaneous arrival: exercises the tie-breaking rules
        else:
            now = now + float(rng.exponential(400.0))
        base = float(rng.uniform(200.0, 3000.0))
        tolerant = rng.random() < 0.4
        trace.append(
            make_task(
                task_id=i,
                daemon_id=int(rng.integers(0, n)),
                arrival_time=now,
                task_class="tolerant" if tolerant else "sensitive",
                base_service_time=base,
                mobile_exec_time=base * float(rng.uniform(3.0, 8.0)),
                cloud_exec_time=base * float(rng.uniform(0.5, 1.5)),
                data_volume=0.0 if rng.random() < 0.2 else float(rng.uniform(1e4, 1e6)),
                latency_bound=base * float(rng.uniform(1.5, 6.0)) if tolerant else None,
            )
        )
    probe_latency = 0.0 if rng.random() < 0.4 else float(rng.uniform(100.0, 2000.0))
    quantum = float(rng.uniform(50.0, 500.0))
    return topology, trace, probe_latency, quantum


def test_criterion_3_replay_oracle_equivalence(capsys):
    def body():
        rng = np.random.default_rng(20_2437)
        for _ in range(200):
            topology, trace, probe_latency, quantum = random_instance(rng)
            policy_seed = int(rng.integers(0, 2**31))
            for name in SCHEDULER_NAMES:
                engine_run = Simulation(
                    topology,
                    make_scheduler(name, rng=np.random.default_rng(policy_seed),
                                   delay_quantum=quantum),
                    probe_latency=probe_latency,
                ).run(trace)
                replay = ReplayOracle(topology, probe_latency=probe_latency).run(
                    trace,
                    make_scheduler(name, rng=np.random.default_rng(policy_seed),
                                   delay_quantum=quantum),
                )
                assert len(engine_run.records) == len(replay)
                for got, want in zip(engine_run.records, replay):
                    assert got.task_id == want.task_id
                    assert ("cloud" if got.executor is None else str(got.executor)) == want.executor
                    assert got.assign_time == want.assign_time
                    assert got.start_time == want.start_time
                    assert got.completion_time == want.completion_time
                    assert got.delays_taken == want.delays_taken

    criterion(capsys, 3, "replay-oracle equivalence", 30.0, body)


def test_criterion_4_weighted_turnaround_ordering(sweep, capsys):
    def body():
        rows, elapsed = sweep
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
        for lam in LAMBDAS:
            awt = {s: rows[(s, lam)]["awt"]["mean"] for s in CLOUDLET_SCHEDULERS}
            assert awt["daa"] < awt["two-choices"]
            assert abs(awt["two-choices"] - awt["greedy"]) < 0.5 * (
                awt["round-robin"] - awt["greedy"]
            )
            assert awt["round-robin"] >= 1.10 * awt["daa"]
            assert awt["daemon-only"] >= 1.10 * awt["daa"]
        gaps = {
            lam: rows[("two-choices", lam)]["awt"]["mean"]
            - rows[("daa", lam)]["awt"]["mean"]
            for lam in LAMBDAS
        }
        assert gaps[2.0] > gaps[1.0]

    criterion(capsys, 4, "weighted-turnaround ordering", 120.0, body)


def test_criterion_5_makespan_ordering(sweep, capsys):
    def body():
        rows, _ = sweep
        for lam in LAMBDAS:
            mk_max = {s: rows[(s, lam)]["makespan_max"]["mean"] for s in CLOUDLET_SCHEDULERS}
            mk_avg = {s: rows[(s, lam)]["makespan_avg"]["mean"] for s in CLOUDLET_SCHEDULERS}
            worst_two = sorted(mk_max, key=mk_max.get, reverse=True)[:2]
            assert set(worst_two) == {"daemon-only", "round-robin"}
            assert min(mk_avg, key=mk_avg.get) == "daa"

    criterion(capsys, 5, "makespan ordering", 30.0, body)


def test_criterion_6_cloud_only_anchor(capsys):
    def body():
        config = EdgeCloudConfig()
        trace = generate_trace(config, derive_seed(config.seed, "trace"))
        cloud = simulate(config, trace, "cloud-only", config.seed)
        adaptive = simulate(config, trace, "daa", config.seed)
        cloud_awt = summarize(cloud.records, cloud.topology).awt
        adaptive_awt = summarize(adaptive.records, adaptive.topology).awt
        assert 1.4 <= cloud_awt <= 1.8, f"cloud-only awt {cloud_awt:.4f}"
        assert cloud_awt > adaptive_awt

    criterion(capsys, 6, "cloud-only calibration anchor", 30.0, body)


class AuditingDaa:
    """Wraps the adaptive policy; re-derives the deferral-safety check
    on every Delay decision without touching the run itself."""

    name = "daa"

    def __init__(self, inner):
        self._inner = inner
        self.violations = []
        self.delay_counts = {}

    def decide(self, task, view):
        decision = self._inner.decide(task, view)
        if isinstance(decision, Delay):
            projected = view.daemon_completion_if_delayed(self._inner.delay_quantum)
            if projected >= task.deadline:
                self.violations.append((task.id, view.now, projected, task.deadline))
            self.delay_counts[task.id] = self.delay_counts.get(task.id, 0) + 1
        return decision


def test_criterion_7_delay_scheduling_safety(capsys):
    def body():
        config = EdgeCloudConfig()
        delayed_at = {lam: 0 for lam in LAMBDAS}
        for lam in LAMBDAS:
            for rep in REPLICATES:
                cell_seed = derive_seed(BASE_SEED, "cell", repr(float(lam)), rep)
                trace = generate_trace(config.override(arrival_rate=lam),
                                       derive_seed(cell_seed, "trace"))
                topology = build_topology(config, seed=cell_seed)
                run_seed = derive_seed(BASE_SEED, "run", "daa", repr(float(lam)), rep)
                audit = AuditingDaa(make_scheduler(
                    "daa",
                    rng=new_rng(run_seed, "policy"),
                    delay_quantum=config.resolve_delay_quantum(),
                ))
                sim = Simulation(topology, audit, probe_latency=config.probe_latency_ms)
                result = sim.run(trace)

                assert audit.violations == [], audit.violations
                # the audited rerun is the same run the comparison saw
                summary = summarize(result.records, topology)
                [row] = run_comparison(config, ["daa"], [lam], [rep], BASE_SEED)
                assert {m: row[m] for m in COMPARE_METRICS} == {
                    m: {"mean": getattr(summary, m), "std": 0.0} for m in COMPARE_METRICS}

                wakes = sum(1 for d in result.decisions if d.kind == DELAY_EXPIRED)
                assert wakes == sum(r.delays_taken for r in result.records)
                for record in result.records:
                    assert record.delays_taken == audit.delay_counts.get(record.task_id, 0)
                    if record.delays_taken > 0:
                        assert record.task_class.value == "tolerant"
                delayed_at[lam] += sum(1 for r in result.records if r.delays_taken > 0)
        assert delayed_at[2.0] > 0

    criterion(capsys, 7, "delay-scheduling safety", 60.0, body)


def test_criterion_8_determinism_and_statistics(tmp_path, capsys):
    def body():
        # byte-identical artifacts when the seed repeats
        traces = []
        for name in ("first", "second"):
            path = tmp_path / f"{name}.csv"
            assert main(["generate", "--trace", str(path), "--seed", "424242"]) == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

        runs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main([
                "run", "--scheduler", "daa", "--seed", "424242", "--out", str(out),
            ]) == 0
            runs.append(
                (out / "records.csv").read_bytes() + (out / "summary.csv").read_bytes()
            )
        assert runs[0] == runs[1]

        # two-choice sampling is uniform over the unordered candidate pairs
        rng = np.random.default_rng(1)
        ids = tuple(range(10))
        counts = {}
        for _ in range(100_000):
            pair = frozenset(sample_two(ids, 0, rng))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 36
        result = stats.chisquare(list(counts.values()))
        assert result.pvalue > 0.01, f"p={result.pvalue:.5f}"

        # arrival gaps average out to the configured mean
        arrivals = generate_arrivals(1.0, 100_000, seed=1)
        mean_gap = arrivals[-1] / len(arrivals)
        assert abs(mean_gap - 1000.0) / 1000.0 < 0.01

    criterion(capsys, 8, "determinism and sampling statistics", 120.0, body)


def test_criterion_9_mg1_mean_wait_matches_pollaczek_khinchine(capsys):
    # Kleinrock, Queueing Systems, Vol. 1 (1975): an M/G/1 queue's mean wait is
    # lam * E[S^2] / (2 (1 - rho)).  Daemon-only on single-VM cloudlets makes each
    # cloudlet one: Poisson arrivals thinned by the uniform daemon draw, service from
    # the catalog mix at speed 1, communication charged outside VM occupancy.
    # The estimator is fixed: drop the first 10% of tasks, take 20 batch means of
    # start - arrival per seed in task order, and a 99% t-interval over the 60 means.
    def body():
        config = EdgeCloudConfig(vm_count_range=(1, 1), arrival_rate=0.2, task_count=100_000)
        weights = [b.weight for b in config.catalog]
        services = [b.base_service_ms for b in config.catalog]
        mean_s = sum(w * x for w, x in zip(weights, services)) / sum(weights)
        mean_s2 = sum(w * x * x for w, x in zip(weights, services)) / sum(weights)
        lam = config.arrival_rate / MS_PER_SECOND / config.cloudlet_count  # per ms per cloudlet
        rho = lam * mean_s
        expected = lam * mean_s2 / (2 * (1 - rho))
        assert (round(rho, 4), round(expected)) == (0.4928, 27_589)

        batches, warmup = 20, config.task_count // 10
        means = []
        for seed in (1, 2, 3):
            trace = generate_trace(config, derive_seed(seed, "trace"))
            records = simulate(config, trace, "daemon-only", seed).records[warmup:]
            size = len(records) // batches
            for b in range(batches):
                batch = records[b * size:(b + 1) * size]
                means.append(sum(r.start_time - r.arrival_time for r in batch) / size)
        mean = sum(means) / len(means)
        sd = (sum((m - mean) ** 2 for m in means) / (len(means) - 1)) ** 0.5
        half = 2.662 * sd / len(means) ** 0.5  # t at 0.995 with 59 degrees of freedom
        assert mean - half <= expected <= mean + half, (
            f"mean wait {mean:.0f} +- {half:.0f} ms misses P-K {expected:.0f} ms")

    criterion(capsys, 9, "M/G/1 mean wait against Pollaczek-Khinchine", 60.0, body)
