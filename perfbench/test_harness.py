"""Smoke test of the benchmark harness on small workloads.

    python3 -m pytest perfbench/test_harness.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import harness
import run
import speed

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SMALL = {name: dataclasses.replace(w, tasks=300, replicates=1)
         for name, w in harness.WORKLOADS.items()}


@pytest.fixture(scope="module")
def petrel():
    return harness.import_petrel()


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_is_reported_with_its_unit(petrel, name, tmp_path):
    probe = petrel.engine.ClusterView.probe
    runner = harness.Runner(petrel, SMALL[name], seed=7, out=tmp_path, pins={})
    run.iterate(runner, seconds=0, traced_run=True)
    runner.run(traced=True)
    assert [it.errors for it in runner.iterations] == [[]] * len(runner.iterations)
    # tracing restores petrel and does not change a single output byte
    assert petrel.engine.ClusterView.probe is probe
    assert len({tuple(it.digests.items()) for it in runner.iterations}) == 1

    layers, _, drifted = run.per_layer(runner)
    assert drifted == []
    assert units(layers) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    e2e, _ = run.end_to_end(runner, petrel, setup=[(0.1, 0.12)])
    assert units(e2e) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())


def test_speed_sampler_leaves_its_samples_out_of_the_clock():
    with speed.SpeedSampler(period=0.01) as sampler:
        start, host_start = sampler.clock(), perf_counter()
        for _ in range(20):
            speed.reference_kernel()
        net, host = sampler.clock() - start, perf_counter() - host_start
    assert len(sampler.kernel_s) > 2
    assert 0 < net < host
    assert sampler.scale() > 0


def test_wrong_pinned_digest_is_reported_as_an_error(petrel, monkeypatch, capsys):
    wrong = {"records.csv": "0" * 64}
    monkeypatch.setattr(run, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "load_pins", lambda seed, workload: wrong)
    assert run.main(["--workload", "daemon-io", "--seed", "7", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert any(line.startswith("error: digest mismatch in records.csv") for line in lines)
    assert any(line.startswith("error_rate 1 ") for line in lines)


def test_without_petrel_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / harness.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{harness.BENCH_DIR.name}/run.py", "--workload", "daemon-io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
