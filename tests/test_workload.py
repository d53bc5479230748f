"""Trace generation and the on-disk trace format."""

import csv
import io
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from petrel import workload
from petrel.config import ConfigError, EdgeCloudConfig, load_config, save_config
from petrel.model import Profile, Task, TaskClass
from petrel.seeding import derive_seed, new_rng
from petrel.workload import (
    TRACE_COLUMNS,
    Benchmark,
    TraceFormatError,
    default_catalog,
    format_number,
    generate_arrivals,
    generate_trace,
    load_trace,
    save_trace,
)


SEED = 20240917


def config(**overrides):
    base = dict(
        task_count=50,
        arrival_rate=1.0,
        catalog=tuple(default_catalog()),
        cloudlet_count=3,
    )
    base.update(overrides)
    return EdgeCloudConfig(**base)


class TestArrivals:
    def test_strictly_increasing(self):
        arrivals = generate_arrivals(2.0, 5000, seed=1)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_mean_gap_tracks_the_rate(self):
        arrivals = generate_arrivals(2.0, 20_000, seed=2)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(500.0, rel=0.03)

    def test_the_rate_is_tasks_per_second(self):
        fast = generate_arrivals(100.0, 1000, seed=3)
        slow = generate_arrivals(1.0, 1000, seed=3)
        assert fast == pytest.approx([t / 100.0 for t in slow], rel=1e-12)
        assert generate_arrivals(1.0, 1, seed=3) == [np.random.default_rng(3).exponential(1000.0)]

    def test_reproducible_and_seed_sensitive(self):
        assert generate_arrivals(1.0, 100, seed=7) == generate_arrivals(1.0, 100, seed=7)
        assert generate_arrivals(1.0, 100, seed=7) != generate_arrivals(1.0, 100, seed=8)

    def test_zero_count(self):
        assert generate_arrivals(1.0, 0, seed=1) == []

    @pytest.mark.parametrize("rate, count, message", [
        (0.0, 10, "arrival_rate must be > 0"),
        (-1.0, 10, "arrival_rate must be > 0"),
        (math.inf, 3, "arrival_rate must be finite"),
        (math.nan, 3, "arrival_rate must be finite"),
        (1.0, -1, "count must be >= 0"),
        (1.0, math.inf, "count must be finite"),
    ])
    def test_rejects_bad_arguments(self, rate, count, message):
        with pytest.raises(ValueError) as caught:
            generate_arrivals(rate, count, seed=1)
        assert str(caught.value) == message  # the shared range rule's message


class TestTraceGeneration:
    def test_ids_are_dense_and_arrivals_sorted(self):
        trace = generate_trace(config(task_count=200), SEED)
        assert [t.id for t in trace] == list(range(200))
        assert all(b.arrival_time > a.arrival_time for a, b in zip(trace, trace[1:]))

    def test_every_task_matches_a_catalog_profile(self):
        catalog = {b.name: b for b in default_catalog()}
        for task in generate_trace(config(task_count=120), SEED):
            profile = task.profile
            bench = catalog[profile.benchmark]
            assert profile.base_service_time == bench.base_service_ms
            assert profile.mobile_exec_time == bench.mobile_ms
            assert profile.cloud_exec_time == bench.cloud_ms
            assert profile.data_volume == bench.data_bytes
            assert profile.task_class is bench.task_class
            assert profile.latency_bound == (None if bench.bound_factor is None
                                             else bench.bound_factor * bench.base_service_ms)

    def test_tasks_of_one_benchmark_share_one_profile(self):
        trace = generate_trace(config(task_count=200), SEED)
        by_name = {t.profile.benchmark: t.profile for t in trace}
        assert len(by_name) == len(default_catalog())
        assert all(t.profile is by_name[t.profile.benchmark] for t in trace)

    @pytest.mark.parametrize("seed", [SEED, 7])
    def test_tasks_carry_their_catalog_entry_profile(self, seed):
        c = config(task_count=200)
        entries = {b.name: b for b in c.catalog}
        trace = generate_trace(c, seed)
        assert {t.profile.benchmark for t in trace} == entries.keys()
        assert all(t.profile is entries[t.profile.benchmark].profile for t in trace)

    def test_daemons_stay_in_range_and_spread_out(self):
        trace = generate_trace(config(task_count=3000, cloudlet_count=3), SEED)
        counts = np.bincount([t.daemon_id for t in trace], minlength=3)
        assert counts.sum() == 3000
        expected = 1000.0
        sigma = math.sqrt(3000 * (1 / 3) * (2 / 3))
        for c in counts:
            assert abs(c - expected) < 3 * sigma

    def test_weights_skew_the_benchmark_mix(self):
        catalog = tuple(replace(b, weight=1e-9 if i < 4 else 1.0)
                        for i, b in enumerate(default_catalog()))
        trace = generate_trace(config(task_count=60, catalog=catalog), SEED)
        assert {t.profile.benchmark for t in trace} == {catalog[4].name}

    def test_reproducible_from_the_seed_alone(self):
        assert generate_trace(config(), SEED) == generate_trace(config(), SEED)
        assert generate_trace(config(), SEED) != generate_trace(config(), SEED + 1)

    def test_empty_trace(self):
        assert generate_trace(config(task_count=0), SEED) == []

    def test_arrivals_that_overflow_are_a_config_error(self):
        overflowing = config(task_count=200, arrival_rate=1.0e-305)
        with pytest.raises(ConfigError) as caught:
            generate_trace(overflowing, SEED)
        assert str(caught.value) == ("trace.arrival_rate: the arrival times of 200 tasks"
                                     " overflow the float range; raise arrival_rate")

    def test_reads_the_trace_fields_of_the_config(self):
        c = config(task_count=42, arrival_rate=1.5,
                   catalog=tuple(default_catalog()[1:3]), cloudlet_count=2)
        trace = generate_trace(c, 9)
        assert [t.arrival_time for t in trace] == generate_arrivals(
            1.5, 42, derive_seed(9, "arrivals"))
        assert {t.profile.benchmark for t in trace} == {"pool", "pingpong"}
        assert {t.daemon_id for t in trace} == {0, 1}

    def test_ignores_the_config_seed_and_other_fields(self):
        c = config()
        other = c.override(seed=c.seed + 1, probe_latency_ms=0.0, vm_count_range=(2, 2))
        assert generate_trace(other, SEED) == generate_trace(c, SEED)

    @given(
        weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
        task_count=st.integers(1, 300),
        cloudlet_count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mix_matches_generator_choice(self, weights, task_count, cloudlet_count, seed):
        catalog = tuple(
            Benchmark(f"b{i}", TaskClass.LATENCY_SENSITIVE, 100.0 + i, 500.0, 100.0, 10.0 * i,
                      weight=w)
            for i, w in enumerate(weights)
        )
        c = config(task_count=task_count, catalog=catalog, cloudlet_count=cloudlet_count)
        assert generate_trace(c, seed) == reference_trace(c, seed)

    def test_weights_must_have_a_finite_sum(self):
        catalog = tuple(replace(b, weight=1e308) for b in default_catalog())
        with warnings.catch_warnings(), pytest.raises(ConfigError) as caught:
            warnings.simplefilter("error")  # the overflow is reported, not also warned about
            generate_trace(config(catalog=catalog), SEED)
        assert str(caught.value) == "catalog: weights must have a finite sum"

    def test_weights_are_relative(self):
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        scaled = [config(catalog=tuple(replace(b, weight=w * k)
                                       for b, w in zip(default_catalog(), weights)))
                  for k in (1.0, 10.0)]
        assert generate_trace(scaled[0], SEED) == generate_trace(scaled[1], SEED)
        assert generate_trace(scaled[0], SEED) == reference_trace(scaled[0], SEED)


def reference_trace(c, seed):
    """The per-task draw loop with ``rng.choice(k, p=weights)`` and ``rng.integers``."""
    arrivals = generate_arrivals(c.arrival_rate, c.task_count, derive_seed(seed, "arrivals"))
    rng = new_rng(seed, "mix")
    weights = np.asarray([b.weight for b in c.catalog], dtype=float)
    p = weights / weights.sum()
    want = []
    for i, arrival in enumerate(arrivals):
        bench = c.catalog[int(rng.choice(len(c.catalog), p=p))]
        daemon = int(rng.integers(0, c.cloudlet_count))
        want.append(Task(i, arrival, daemon, Profile(
            benchmark=bench.name, task_class=bench.task_class,
            base_service_time=bench.base_service_ms, mobile_exec_time=bench.mobile_ms,
            cloud_exec_time=bench.cloud_ms, data_volume=bench.data_bytes,
            latency_bound=bench.profile.latency_bound,
        )))
    return want


@pytest.fixture
def loop_calls(monkeypatch):
    """The calls the batched mix makes when it falls back to the per-task loop."""
    calls = []
    loop = workload._mix_by_loop

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(workload, "_mix_by_loop", counted)
    return calls


class TestBatchedMix:
    """``generate_trace`` takes its mix from one ``random_raw`` batch; it must
    draw exactly what the ``Generator.random``/``integers`` loop draws."""

    @pytest.mark.parametrize("task_count", [1, 2, 5, 400, 401])
    @pytest.mark.parametrize("cloudlet_count", [
        1, 2, 3, 7, 10, 16, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 3,
    ])
    @pytest.mark.parametrize("seed", [0, 1234, 2**32 - 1])
    def test_matches_the_per_task_loop(self, task_count, cloudlet_count, seed):
        c = config(task_count=task_count, cloudlet_count=cloudlet_count)
        assert generate_trace(c, seed) == reference_trace(c, seed)

    @pytest.mark.parametrize("cloudlet_count,falls_back", [
        (1, False),
        (10, False),
        # Lemire's threshold is 2**32 mod k: about half of all draws reject
        (2**31 + 1, True),
        (2**32 - 1, False),
        (2**32, False),
        # beyond one 32-bit half numpy draws whole words
        (2**32 + 3, True),
    ])
    def test_falls_back_where_the_batch_cannot_follow(self, loop_calls, cloudlet_count,
                                                      falls_back):
        c = config(task_count=300, cloudlet_count=cloudlet_count)
        assert generate_trace(c, 1234) == reference_trace(c, 1234)
        assert len(loop_calls) == int(falls_back)

    def test_no_tasks_draw_nothing(self, loop_calls):
        assert generate_trace(config(task_count=0, cloudlet_count=2**32 + 3), SEED) == []
        assert loop_calls == []


class TestBenchmark:
    def test_tolerant_needs_a_real_bound_factor(self):
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0, bound_factor=1.0)

    def test_sensitive_forbids_bound_factor(self):
        with pytest.raises(ValueError):
            Benchmark("x", TaskClass.LATENCY_SENSITIVE, 100.0, 500.0, 100.0, 0.0, bound_factor=2.0)

    @pytest.mark.parametrize("field", ["base_service_ms", "mobile_ms", "cloud_ms", "data_bytes",
                                       "bound_factor", "weight"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_numbers(self, field, bad):
        values = dict(name="x", task_class=TaskClass.LATENCY_TOLERANT, base_service_ms=100.0,
                      mobile_ms=500.0, cloud_ms=100.0, data_bytes=0.0, bound_factor=4.0)
        values[field] = bad
        with pytest.raises(ValueError, match=f"benchmark x: {field} must be finite"):
            Benchmark(**values)

    @pytest.mark.parametrize("task_class, bound_factor", [
        ("sensitive", None), ("tolerant", None), ("tolerant", 2.0)])
    def test_a_class_token_is_no_task_class(self, task_class, bound_factor):
        with pytest.raises(ValueError, match=f"^benchmark x: class must be a TaskClass,"
                                             f" got '{task_class}'$"):
            Benchmark("x", task_class, 12.0, 1.0, 1.0, 0.0, bound_factor=bound_factor)

    @pytest.mark.parametrize("field, bad", [
        ("weight", 10**400), ("bound_factor", 10**400), ("base_service_ms", True),
        ("data_bytes", False), ("mobile_ms", "1"), ("cloud_ms", None), ("weight", None)],
        ids=["huge-weight", "huge-bound_factor", "bool", "false", "str", "none", "none-weight"])
    def test_a_number_is_a_real_in_the_float_range(self, field, bad):
        values = dict(name="x", task_class=TaskClass.LATENCY_TOLERANT, base_service_ms=100.0,
                      mobile_ms=500.0, cloud_ms=100.0, data_bytes=0.0, bound_factor=4.0)
        values[field] = bad
        with pytest.raises(ValueError, match=f"^benchmark x: {field}: expected float,"
                                             f" got {re.escape(repr(bad))}$"):
            Benchmark(**values)

    @pytest.mark.parametrize("name", [5, None, b"x", TaskClass.LATENCY_SENSITIVE])
    def test_the_name_is_a_str(self, name):
        with pytest.raises(ValueError, match=f"^benchmark name: expected str,"
                                             f" got {re.escape(repr(name))}$"):
            Benchmark(name, TaskClass.LATENCY_SENSITIVE, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["name", "task_class", "base_service_ms", "weight"])
    def test_an_int_too_long_to_print_is_named_by_its_field(self, field):
        values = dict(name="x", task_class=TaskClass.LATENCY_SENSITIVE, base_service_ms=1.0,
                      mobile_ms=1.0, cloud_ms=1.0, data_bytes=0.0)
        values[field] = 10**5000  # past Python's default limit of 4,300 digits for str()
        message = {"name": "benchmark name: expected str, got",
                   "task_class": "benchmark x: class must be a TaskClass, got"}.get(
                       field, f"benchmark x: {field}: expected float, got")
        with pytest.raises(ValueError) as caught:
            Benchmark(**values)
        assert str(caught.value) == f"{message} an int of 16610 bits"

    def test_the_fields_are_in_file_order_and_the_last_two_keyword_only(self):
        assert [f.name for f in fields(Benchmark) if f.init] == [
            "name", "task_class", "base_service_ms", "mobile_ms", "cloud_ms", "data_bytes",
            "weight", "bound_factor"]
        with pytest.raises(TypeError):
            Benchmark("x", TaskClass.LATENCY_TOLERANT, 1.0, 1.0, 1.0, 0.0, 4.0)

    @pytest.mark.parametrize("number", [2, np.int64(2), np.float64(2.0)])
    def test_each_number_is_stored_as_a_plain_float(self, number, tmp_path):
        b = Benchmark("x", TaskClass.LATENCY_TOLERANT, number, number, number, number,
                      bound_factor=number, weight=number)
        for field in ("base_service_ms", "mobile_ms", "cloud_ms", "data_bytes", "bound_factor",
                      "weight"):
            assert type(getattr(b, field)) is float and getattr(b, field) == 2.0, field
        path = tmp_path / "config.yaml"
        save_config(EdgeCloudConfig(catalog=(b,)), path)
        assert load_config(path).catalog == (b,)

    def test_bound_scales_with_service_time(self):
        b = Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 0.0, bound_factor=4.0)
        assert b.profile.latency_bound == 400.0

    def test_builds_its_profile_once(self):
        b = Benchmark("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 2.0, bound_factor=4.0,
                      weight=3.0)
        assert b.profile == Profile("x", TaskClass.LATENCY_TOLERANT, 100.0, 500.0, 100.0, 2.0,
                                    400.0)
        heavier = replace(b, weight=6.0)
        assert heavier.profile == b.profile and heavier.profile is not b.profile
        assert "profile" not in repr(b)

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
        trace = generate_trace(config(task_count=80), SEED)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_round_trip_keeps_one_profile_per_benchmark(self, tmp_path):
        trace = generate_trace(config(task_count=300), SEED)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace
        shared = {t.profile.benchmark: t.profile for t in loaded}
        assert len(shared) == len(default_catalog())
        assert all(t.profile is shared[t.profile.benchmark] for t in loaded)

    def test_fractional_arrivals_survive(self, tmp_path):
        trace = generate_trace(config(task_count=40, arrival_rate=3.7), SEED)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [t.arrival_time for t in loaded] == [t.arrival_time for t in trace]

    def test_identical_bytes_for_identical_traces(self, tmp_path):
        trace = generate_trace(config(task_count=40), SEED)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(trace, a)
        save_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines", 'all, "of"\r\nthem', ""])
    def test_names_that_need_quoting(self, tmp_path, name):
        trace = [t._replace(profile=replace(t.profile, benchmark=name))
                 for t in generate_trace(config(task_count=6), SEED)]
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace
        assert path.read_bytes() == csv_writer_trace(trace)


def csv_writer_trace(trace):
    """A trace file as one ``csv.writer.writerow`` per task writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for t in trace:
        p = t.profile
        writer.writerow([
            t.id, format_number(t.arrival_time), t.daemon_id, p.benchmark, p.task_class.value,
            format_number(p.base_service_time), format_number(p.mobile_exec_time),
            format_number(p.cloud_exec_time), format_number(p.data_volume),
            "" if p.latency_bound is None else format_number(p.latency_bound),
        ])
    return buf.getvalue().encode()


# values that are equal or nearly so: 0.0 and -0.0, an int and its float,
# integral floats at and above 2**53, and their neighbours
POSITIVE = st.one_of(
    st.sampled_from([12800, 12800.0, 12800.5, 1.0, 1, 0.1, 5e-324, 1e300, 2.0**53 - 1, 2.0**53,
                     2.0**53 + 2, 2**53, 2**53 + 1, 1e16]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
DATA = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 12800, 12800.0, 2.0**53, 2**53 + 1]),
    st.floats(min_value=0.0, allow_infinity=False),
)
NAMES = st.one_of(
    st.sampled_from(["face", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "", "caf\u00e9",
                     "\u540d\u524d"]),
    st.text(max_size=4),
)


@st.composite
def profiles(draw, task_class=None):
    """The seven columns of one benchmark profile, as ``Profile`` arguments."""
    if task_class is None:
        task_class = draw(st.sampled_from(TaskClass))
    bound = draw(POSITIVE) if task_class is TaskClass.LATENCY_TOLERANT else None
    return dict(benchmark=draw(NAMES), task_class=task_class, base_service_time=draw(POSITIVE),
                mobile_exec_time=draw(POSITIVE), cloud_exec_time=draw(POSITIVE),
                data_volume=draw(DATA), latency_bound=bound)


# a twin differs from the first profile in one of these; a class comes with its bound
TWIN_FIELDS = (("benchmark",), ("task_class", "latency_bound"), ("latency_bound",),
               ("base_service_time",), ("mobile_exec_time",), ("cloud_exec_time",),
               ("data_volume",))


@st.composite
def profile_traces(draw):
    """Tasks drawn from one profile and its twins, each of which differs from
    it in one field, and from copies: equal-valued profiles that are
    distinct objects."""
    first = draw(profiles())
    pool = [first]
    for _ in range(draw(st.integers(1, 5))):
        fields = draw(st.sampled_from(TWIN_FIELDS))
        other = draw(profiles(first["task_class"] if fields == ("latency_bound",) else None))
        pool.append(first | {f: other[f] for f in fields})
    pool += draw(st.lists(st.sampled_from(pool), max_size=3))
    objects = [Profile(**values) for values in pool]
    # every profile at least once, in any order, then repeats
    picks = (draw(st.permutations(range(len(objects))))
             + draw(st.lists(st.integers(0, len(objects) - 1), max_size=18)))
    arrivals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0**53]) | st.floats(0, 1e300),
                             min_size=len(picks), max_size=len(picks)))
    return [Task(i, arrival, draw(st.integers(0, 2**40)), objects[pick])
            for i, (pick, arrival) in enumerate(zip(picks, arrivals))]


class TestSaveTraceProfileCache:
    @given(trace=profile_traces())
    def test_bytes_equal_csv_writer(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            save_trace(trace, path)
            with open(path, "rb") as fh:
                assert fh.read() == csv_writer_trace(trace)


def assert_checked_tasks(trace):
    """Each task is exactly a ``Task`` and equals the one its checking constructor builds."""
    for task in trace:
        assert type(task) is Task
        assert len(task) == len(Task._fields)
        assert task == Task(*task)
        assert (type(task.id), type(task.arrival_time), type(task.daemon_id)) == (int, float, int)


class TestBuiltTaskShapes:
    """``generate_trace`` and ``load_trace`` build tasks without ``Task``'s
    checks, which they have made already, so pin what they build."""

    @given(
        entries=st.lists(st.tuples(st.sampled_from(default_catalog()), st.floats(1e-6, 1e6)),
                         min_size=1, max_size=5, unique_by=lambda e: e[0].name),
        task_count=st.integers(0, 150),
        cloudlet_count=st.integers(1, 12),
        arrival_rate=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_tasks(self, entries, task_count, cloudlet_count, arrival_rate, seed):
        catalog = tuple(replace(b, weight=w) for b, w in entries)
        c = config(task_count=task_count, catalog=catalog, cloudlet_count=cloudlet_count,
                   arrival_rate=arrival_rate)
        trace = generate_trace(c, seed)
        assert len(trace) == task_count
        assert_checked_tasks(trace)

    @given(trace=profile_traces())
    def test_loaded_tasks(self, trace):
        trace = sorted(trace, key=lambda t: t.arrival_time)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            save_trace(trace, path)
            loaded = load_trace(path)
        # the strategy's int-valued profile fields load back as floats
        assert [t[:3] for t in loaded] == [t[:3] for t in trace]
        assert_checked_tasks(loaded)


HEADER = "task_id,arrival_ms,daemon_id,benchmark,class,base_service_ms,mobile_ms,cloud_ms,data_bytes,bound_ms"
GOOD_ROW = "0,100,1,face,sensitive,1000,5000,800,2000,"
TOLERANT_ROW = "0,100,1,sandwich,tolerant,1000,5000,800,2000,4000"


def write_lines(tmp_path, *lines):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadProfiles:
    def test_one_profile_object_per_distinct_raw_profile(self, tmp_path):
        rows = [GOOD_ROW, NEXT_ROW,
                "2,300,0,face,sensitive,1000.0,5000,800,2000,",  # same values, other spelling
                "3,400,2,face,sensitive,1000,5000,800,2000,",
                "4,500,1,face,sensitive,1000.0,5000,800,2000,"]
        tasks = load_trace(write_lines(tmp_path, HEADER, *rows))
        p = [t.profile for t in tasks]
        assert p[0] is p[1] is p[3]
        assert p[2] is p[4]
        assert p[2] is not p[0] and p[2] == p[0]


class TestLoadErrors:
    def test_happy_path_parses(self, tmp_path):
        tasks = load_trace(write_lines(tmp_path, HEADER, GOOD_ROW))
        assert len(tasks) == 1
        assert tasks[0].profile.benchmark == "face"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="missing header"):
            load_trace(path)

    def test_the_columns_are_the_documented_header(self, tmp_path):
        assert ",".join(TRACE_COLUMNS) == HEADER
        path = tmp_path / "trace.csv"
        save_trace(generate_trace(config(task_count=1), SEED), path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == HEADER

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


# each profile column of a trace, in column order, and its Profile keyword
PROFILE_KEYWORDS = {"base_service_ms": "base_service_time", "mobile_ms": "mobile_exec_time",
                    "cloud_ms": "cloud_exec_time", "data_bytes": "data_volume",
                    "bound_ms": "latency_bound"}
# the bounds' edges (0, -0 and the least float above 0), and values below and beyond them
EDGE_AND_BAD = ["0", "-0", "5e-324", "-1", "inf", "-inf", "nan"]


def assert_profile_and_loader_agree(tmp_path, changes):
    """A tolerant profile with ``changes`` (trace column -> raw text) fails alike built as a
    ``Profile`` and loaded from a trace: both accept, or both name the same column."""
    raws = dict(zip(PROFILE_KEYWORDS, TOLERANT_ROW.split(",")[5:])) | changes
    profile_error = trace_error = None
    try:
        Profile("sandwich", TaskClass.LATENCY_TOLERANT,
                **{PROFILE_KEYWORDS[c]: float(raw) for c, raw in raws.items()})
    except ValueError as exc:
        profile_error = str(exc)
    try:
        row = ",".join(["0,100,1,sandwich,tolerant", *raws.values()])
        load_trace(write_lines(tmp_path, HEADER, row))
    except TraceFormatError as exc:
        trace_error = str(exc)
    assert (profile_error is None) == (trace_error is None), (profile_error, trace_error)
    if profile_error is None:
        return None
    column = profile_error.split()[0]
    if column in PROFILE_KEYWORDS:  # a column's own rule
        rule = profile_error[len(column) + 1:]
        assert trace_error.startswith(f"line 2: field {column!r} {rule}, got "), trace_error
    else:  # a rule of the task class, which the loader leaves to the profile
        assert trace_error == f"line 2: task 0: {profile_error}"
    return column


class TestProfileAndLoaderAgree:
    @pytest.mark.parametrize("raw", EDGE_AND_BAD)
    @pytest.mark.parametrize("column", PROFILE_KEYWORDS)
    def test_one_value(self, tmp_path, column, raw):
        assert_profile_and_loader_agree(tmp_path, {column: raw})

    @pytest.mark.parametrize("first, second", [
        (a, b) for i, a in enumerate(PROFILE_KEYWORDS) for b in list(PROFILE_KEYWORDS)[i + 1:]])
    def test_two_faults_name_the_first_column(self, tmp_path, first, second):
        assert assert_profile_and_loader_agree(tmp_path, {first: "-1", second: "nan"}) == first


NEXT_ROW = "1,200,1,face,sensitive,1000,5000,800,2000,"

# rows after the header -> the whole message; the first faulty column of a
# row wins, and a duplicate id is reported before anything about its arrival
LOAD_ERROR_MESSAGES = {
    "task_id not an int": (
        ["x,100,1,face,sensitive,1000,5000,800,2000,"],
        "line 2: field 'task_id' is not a valid int: 'x'"),
    "task_id a float": (
        ["1.0,100,1,face,sensitive,1000,5000,800,2000,"],
        "line 2: field 'task_id' is not a valid int: '1.0'"),
    "daemon_id a float": (
        ["0,100,1.5,face,sensitive,1000,5000,800,2000,"],
        "line 2: field 'daemon_id' is not a valid int: '1.5'"),
    "daemon_id empty": (
        ["0,100,,face,sensitive,1000,5000,800,2000,"],
        "line 2: field 'daemon_id' is not a valid int: ''"),
    "bound_ms not a number": (
        ["0,100,1,sandwich,tolerant,1000,5000,800,2000,soon"],
        "line 2: field 'bound_ms' is not a valid float: 'soon'"),
    "mobile_ms zero": (
        ["0,100,1,face,sensitive,1000,0,800,2000,"],
        "line 2: field 'mobile_ms' must be > 0, got 0"),
    "mobile_ms negative": (
        ["0,100,1,face,sensitive,1000,-5,800,2000,"],
        "line 2: field 'mobile_ms' must be > 0, got -5"),
    "cloud_ms zero": (
        ["0,100,1,face,sensitive,1000,5000,0,2000,"],
        "line 2: field 'cloud_ms' must be > 0, got 0"),
    "cloud_ms negative": (
        ["0,100,1,face,sensitive,1000,5000,-0.5,2000,"],
        "line 2: field 'cloud_ms' must be > 0, got -0.5"),
    "negative arrival": (
        ["0,-1,1,face,sensitive,1000,5000,800,2000,"],
        "line 2: task 0: arrival_time must be >= 0"),
    "sensitive with a bound": (
        ["0,100,1,face,sensitive,1000,5000,800,2000,4000"],
        "line 2: task 0: sensitive tasks must not carry a latency_bound"),
    "tolerant with a zero bound": (
        ["0,100,1,sandwich,tolerant,1000,5000,800,2000,0"],
        "line 2: task 0: tolerant tasks need a positive latency_bound"),
    "field count before task_id": (
        ["x,100,1"],
        "line 2: expected 10 fields, got 3"),
    "arrival before class": (
        ["0,soon,1,face,urgent,1000,5000,800,2000,"],
        "line 2: field 'arrival_ms' is not a valid float: 'soon'"),
    "daemon_id before data_bytes": (
        ["0,100,x,face,sensitive,1000,5000,800,-1,"],
        "line 2: field 'daemon_id' is not a valid int: 'x'"),
    "base_service_ms before mobile_ms": (
        ["0,100,1,face,sensitive,0,-1,800,2000,"],
        "line 2: field 'base_service_ms' must be > 0, got 0"),
    "non-finite mobile_ms before cloud_ms": (
        ["0,100,1,face,sensitive,1000,nan,0,2000,"],
        "line 2: field 'mobile_ms' must be finite, got 'nan'"),
    "class before bound_ms": (
        ["0,100,1,face,urgent,1000,5000,800,2000,soon"],
        "line 2: field 'class' must be 'sensitive' or 'tolerant', got 'urgent'"),
    "field checks before task checks": (
        ["0,-1,1,face,sensitive,1000,5000,800,-1,"],
        "line 2: field 'data_bytes' must be >= 0, got -1"),
    "duplicate before a bad arrival": (
        [GOOD_ROW, "0,soon,1,face,sensitive,1000,5000,800,2000,"],
        "line 3: duplicate task_id 0"),
    "duplicate before a backwards arrival": (
        ["0,300,1,face,sensitive,1000,5000,800,2000,",
         "0,50,1,face,sensitive,1000,5000,800,2000,"],
        "line 3: duplicate task_id 0"),
    "backwards before a bad daemon_id": (
        [NEXT_ROW, "2,150,x,face,sensitive,1000,5000,800,2000,"],
        "line 3: field 'arrival_ms' goes backwards (150.0 < 200.0)"),
    "cached profile, duplicate id": (
        [GOOD_ROW, "0,200,1,face,sensitive,1000,5000,800,2000,"],
        "line 3: duplicate task_id 0"),
    "cached profile, backwards arrival": (
        [NEXT_ROW, "2,150,1,face,sensitive,1000,5000,800,2000,"],
        "line 3: field 'arrival_ms' goes backwards (150.0 < 200.0)"),
    "cached profile, non-finite arrival": (
        [GOOD_ROW, "1,inf,1,face,sensitive,1000,5000,800,2000,"],
        "line 3: field 'arrival_ms' must be finite, got 'inf'"),
    "cached profile, bad daemon_id": (
        [GOOD_ROW, "1,200,x,face,sensitive,1000,5000,800,2000,"],
        "line 3: field 'daemon_id' is not a valid int: 'x'"),
    "cached profile, too many fields": (
        [GOOD_ROW, "1,200,1,face,sensitive,1000,5000,800,2000,,"],
        "line 3: expected 10 fields, got 11"),
    "cached profile, too few fields": (
        [GOOD_ROW, "1,200,1,face,sensitive,1000,5000,800,2000"],
        "line 3: expected 10 fields, got 9"),
    "negative arrival before a bound on a sensitive task": (
        ["0,-1,1,face,sensitive,1000,5000,800,2000,4000"],
        "line 2: task 0: arrival_time must be >= 0"),
    "later new profile, mobile_ms zero": (
        [GOOD_ROW, "1,200,1,face,sensitive,1000,0,800,2000,"],
        "line 3: field 'mobile_ms' must be > 0, got 0"),
    "later new profile, bad class": (
        [GOOD_ROW, "1,200,1,face,urgent,1000,5000,800,2000,"],
        "line 3: field 'class' must be 'sensitive' or 'tolerant', got 'urgent'"),
    "later new profile, bound_ms not a number": (
        [GOOD_ROW, "1,200,1,sandwich,tolerant,1000,5000,800,2000,soon"],
        "line 3: field 'bound_ms' is not a valid float: 'soon'"),
    "later new profile, sensitive with a bound": (
        [GOOD_ROW, "1,200,1,face,sensitive,1000,5000,800,2000,4000"],
        "line 3: task 1: sensitive tasks must not carry a latency_bound"),
    "later new profile, tolerant without a bound": (
        [GOOD_ROW, "1,200,1,sandwich,tolerant,1000,5000,800,2000,"],
        "line 3: task 1: tolerant tasks need a positive latency_bound"),
    "later new profile, duplicate id before its fields": (
        [GOOD_ROW, "0,200,1,face,sensitive,1000,0,800,2000,"],
        "line 3: duplicate task_id 0"),
    "later new profile, backwards arrival before its fields": (
        [NEXT_ROW, "2,150,1,face,urgent,1000,5000,800,2000,"],
        "line 3: field 'arrival_ms' goes backwards (150.0 < 200.0)"),
    "blank lines still count": (
        [GOOD_ROW, "", "1,50,1,face,sensitive,1000,5000,800,2000,"],
        "line 4: field 'arrival_ms' goes backwards (50.0 < 100.0)"),
    "quoted line breaks count as lines": (
        ['0,100,1,"a\r\nb",sensitive,1000,5000,800,2000,',
         '1,200,1,"a\r\nb",sensitive,1000,5000,800,2000,',
         "2,x,1,face,sensitive,1000,5000,800,2000,"],
        "line 6: field 'arrival_ms' is not a valid float: 'x'"),
}


class TestLoadErrorMessages:
    @pytest.mark.parametrize("case", sorted(LOAD_ERROR_MESSAGES))
    def test_message(self, tmp_path, case):
        rows, message = LOAD_ERROR_MESSAGES[case]
        with pytest.raises(TraceFormatError) as info:
            load_trace(write_lines(tmp_path, HEADER, *rows))
        assert str(info.value) == message

    @given(trace=profile_traces())
    def test_a_fault_names_the_file_line_its_row_starts_on(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            save_trace(sorted(trace, key=lambda t: t.arrival_time), path)
            with open(path, "a", newline="", encoding="utf-8") as fh:
                fh.write("x,0,0,face,sensitive,1,1,1,0,\r\n")
            with open(path, newline="", encoding="utf-8") as fh:
                text = fh.read()
            # the faulty row is the last line, so its number is the count of line
            # breaks, as a file read with newline="" splits them
            line = len(re.findall("\r\n|\r|\n", text))
            with pytest.raises(TraceFormatError) as info:
                load_trace(path)
        assert str(info.value) == f"line {line}: field 'task_id' is not a valid int: 'x'"

    def test_values_near_the_float_limit_load(self, tmp_path):
        row = "0,1e308,1,sandwich,tolerant,1e308,1e308,1e308,1e308,1e308"
        (task,) = load_trace(write_lines(tmp_path, HEADER, row))
        assert task == Task(0, 1e308, 1, Profile("sandwich", TaskClass.LATENCY_TOLERANT, 1e308,
                                                 1e308, 1e308, 1e308, 1e308))

    def test_equal_arrivals_load_in_file_order(self, tmp_path):
        tasks = load_trace(write_lines(tmp_path, HEADER, GOOD_ROW, NEXT_ROW, TOLERANT_ROW
                                       .replace("0,100", "2,200", 1)))
        assert [(t.id, t.arrival_time) for t in tasks] == [(0, 100.0), (1, 200.0), (2, 200.0)]
