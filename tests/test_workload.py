"""Trace generation and the on-disk trace format."""

import math

import numpy as np
import pytest

from petrel.model import TaskClass
from petrel.workload import (
    Benchmark,
    TraceFormatError,
    TraceSpec,
    default_catalog,
    format_number,
    generate_arrivals,
    generate_trace,
    load_trace,
    save_trace,
)


def spec(**overrides):
    base = dict(
        task_count=50,
        arrival_rate=1.0,
        catalog=tuple(default_catalog()),
        cloudlet_count=3,
        seed=marca_seed(),
    )
    base.update(overrides)
    return TraceSpec(**base)


def marca_seed():
    return 20240917


class TestArrivals:
    def test_strictly_increasing(self):
        arrivals = generate_arrivals(2.0, 5000, seed=1)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_mean_gap_tracks_the_rate(self):
        arrivals = generate_arrivals(2.0, 20_000, seed=2)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(500.0, rel=0.03)

    def test_time_unit_rescales_the_clock(self):
        fast = generate_arrivals(1.0, 1000, seed=3, time_unit_ms=10.0)
        slow = generate_arrivals(1.0, 1000, seed=3, time_unit_ms=1000.0)
        assert fast == pytest.approx([t / 100.0 for t in slow], rel=1e-12)

    def test_reproducible_and_seed_sensitive(self):
        assert generate_arrivals(1.0, 100, seed=7) == generate_arrivals(1.0, 100, seed=7)
        assert generate_arrivals(1.0, 100, seed=7) != generate_arrivals(1.0, 100, seed=8)

    def test_zero_count(self):
        assert generate_arrivals(1.0, 0, seed=1) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_arrivals(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            generate_arrivals(1.0, -1, seed=1)


class TestTraceGeneration:
    def test_ids_are_dense_and_arrivals_sorted(self):
        trace = generate_trace(spec(task_count=200))
        assert [t.id for t in trace] == list(range(200))
        assert all(b.arrival_time > a.arrival_time for a, b in zip(trace, trace[1:]))

    def test_every_task_matches_a_catalog_profile(self):
        catalog = {b.name: b for b in default_catalog()}
        for task in generate_trace(spec(task_count=120)):
            bench = catalog[task.benchmark]
            assert task.base_service_time == bench.base_service_ms
            assert task.mobile_exec_time == bench.mobile_ms
            assert task.cloud_exec_time == bench.cloud_ms
            assert task.data_volume == bench.data_bytes
            assert task.task_class is bench.task_class
            assert task.latency_bound == bench.latency_bound_ms

    def test_daemons_stay_in_range_and_spread_out(self):
        trace = generate_trace(spec(task_count=3000, cloudlet_count=3))
        counts = np.bincount([t.daemon_id for t in trace], minlength=3)
        assert counts.sum() == 3000
        expected = 1000.0
        sigma = math.sqrt(3000 * (1 / 3) * (2 / 3))
        for c in counts:
            assert abs(c - expected) < 3 * sigma

    def test_weights_skew_the_benchmark_mix(self):
        catalog = tuple(default_catalog())
        only_last = tuple(1e-9 if i < 4 else 1.0 for i in range(5))
        trace = generate_trace(spec(task_count=60, catalog_weights=only_last))
        assert {t.benchmark for t in trace} == {catalog[4].name}

    def test_reproducible_from_the_seed_alone(self):
        assert generate_trace(spec()) == generate_trace(spec())
        assert generate_trace(spec()) != generate_trace(spec(seed=marca_seed() + 1))

    def test_empty_trace(self):
        assert generate_trace(spec(task_count=0)) == []

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec(task_count=-1)
        with pytest.raises(ValueError):
            spec(arrival_rate=0.0)
        with pytest.raises(ValueError):
            spec(cloudlet_count=0)
        with pytest.raises(ValueError):
            spec(catalog_weights=(1.0, 2.0))

    def test_normalized_weights_sum_to_one(self):
        weights = spec().normalized_weights()
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()


class TestBenchmark:
    def test_tolerant_needs_a_real_bound_factor(self):
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0, bound_factor=1.0)

    def test_sensitive_forbids_bound_factor(self):
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_SENSITIVE, 100.0, 500.0, 100.0, 0.0, bound_factor=2.0)

    def test_bound_scales_with_service_time(self):
        b = Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0, bound_factor=4.0)
        assert b.latency_bound_ms == 400.0

    def test_default_catalog_shape(self):
        catalog = default_catalog()
        assert len(catalog) == 5
        names = [b.name for b in catalog]
        assert len(set(names)) == 5
        tolerant = [b for b in catalog if b.task_class is TaskClass.LATENCY_TOLERANT]
        assert len(tolerant) == 1


class TestFormatNumber:
    def test_integral_floats_drop_the_point(self):
        assert format_number(5.0) == "5"
        assert format_number(-3.0) == "-3"
        assert format_number(0.0) == "0"

    def test_fractional_values_round_trip(self):
        for value in (5.5, 0.1, 1234.000244140625, 1e-9):
            assert float(format_number(value)) == value

    def test_huge_integral_values_stay_exact(self):
        assert float(format_number(2.0**53)) == 2.0**53


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        trace = generate_trace(spec(task_count=80))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_fractional_arrivals_survive(self, tmp_path):
        trace = generate_trace(spec(task_count=40, arrival_rate=3.7))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [t.arrival_time for t in loaded] == [t.arrival_time for t in trace]

    def test_identical_bytes_for_identical_traces(self, tmp_path):
        trace = generate_trace(spec(task_count=40))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(trace, a)
        save_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()


HEADER = "task_id,arrival_ms,daemon_id,benchmark,class,base_service_ms,mobile_ms,cloud_ms,data_bytes,bound_ms"
GOOD_ROW = "0,100,1,face,sensitive,1000,5000,800,2000,"
TOLERANT_ROW = "0,100,1,sandwich,tolerant,1000,5000,800,2000,4000"


def write_lines(tmp_path, *lines):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadErrors:
    def test_happy_path_parses(self, tmp_path):
        tasks = load_trace(write_lines(tmp_path, HEADER, GOOD_ROW))
        assert len(tasks) == 1
        assert tasks[0].benchmark == "face"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="missing header"):
            load_trace(path)

    def test_bad_header(self, tmp_path):
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(write_lines(tmp_path, "a,b,c", GOOD_ROW))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(write_lines(tmp_path, HEADER, "0,100,1"))

    def test_non_numeric_field_names_the_column(self, tmp_path):
        row = GOOD_ROW.replace("0,100,1", "0,soon,1", 1)
        with pytest.raises(TraceFormatError, match="arrival_ms"):
            load_trace(write_lines(tmp_path, HEADER, row))

    def test_duplicate_ids(self, tmp_path):
        with pytest.raises(TraceFormatError, match="duplicate task_id"):
            load_trace(write_lines(tmp_path, HEADER, GOOD_ROW, GOOD_ROW))

    def test_arrivals_must_not_go_backwards(self, tmp_path):
        second = GOOD_ROW.replace("0,100", "1,50", 1)
        with pytest.raises(TraceFormatError, match="line 3.*backwards"):
            load_trace(write_lines(tmp_path, HEADER, GOOD_ROW, second))

    def test_unknown_class_token(self, tmp_path):
        row = GOOD_ROW.replace("sensitive", "urgent")
        with pytest.raises(TraceFormatError, match="'sensitive' or 'tolerant'"):
            load_trace(write_lines(tmp_path, HEADER, row))

    def test_nonpositive_service_time(self, tmp_path):
        row = GOOD_ROW.replace(",1000,", ",0,", 1)
        with pytest.raises(TraceFormatError, match="base_service_ms"):
            load_trace(write_lines(tmp_path, HEADER, row))

    def test_negative_data(self, tmp_path):
        row = GOOD_ROW.replace(",2000,", ",-1,", 1)
        with pytest.raises(TraceFormatError, match="data_bytes"):
            load_trace(write_lines(tmp_path, HEADER, row))

    def test_tolerant_without_bound_is_reported_with_its_line(self, tmp_path):
        row = GOOD_ROW.replace("sensitive", "tolerant")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(write_lines(tmp_path, HEADER, row))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 5, 6, 7, 8, 9])
    def test_non_finite_values_name_the_column(self, tmp_path, column, raw):
        fields = TOLERANT_ROW.split(",")
        fields[column] = raw
        name = HEADER.split(",")[column]
        with pytest.raises(TraceFormatError, match=f"line 2: field '{name}' must be finite"):
            load_trace(write_lines(tmp_path, HEADER, ",".join(fields)))

    def test_blank_lines_are_skipped(self, tmp_path):
        tasks = load_trace(write_lines(tmp_path, HEADER, "", GOOD_ROW))
        assert len(tasks) == 1
