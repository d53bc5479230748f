"""End-to-end command-line behaviour, including exit codes and file formats."""

import csv
from fractions import Fraction
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import petrel
from petrel.cli import RECORD_COLUMNS, _mean_std, main, run_comparison, write_records_csv
from petrel.config import ConfigError, EdgeCloudConfig, load_config, save_config
from petrel.engine import TaskRecord
from petrel.model import TaskClass
from petrel.seeding import derive_seed
from petrel.workload import Benchmark, format_number, generate_trace, load_trace, save_trace


@pytest.fixture()
def small_config(tmp_path):
    """A 3-cloudlet, 20-task setup that keeps CLI runs fast."""
    config = EdgeCloudConfig(cloudlet_count=3, task_count=20)
    path = tmp_path / "config.yaml"
    save_config(config, path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_strict_json_lines(path):
    """Each line of ``path`` parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


class TestGenerate:
    def test_writes_a_loadable_trace(self, tmp_path, small_config, capsys):
        out = tmp_path / "t.csv"
        code = main(["generate", "--config", small_config, "--trace", str(out), "--seed", "5"])
        assert code == 0
        trace = load_trace(out)
        assert len(trace) == 20
        message = capsys.readouterr().out
        assert "20 tasks" in message
        assert "(seed 5)" in message

    def test_explicit_trace_path_creates_parents(self, tmp_path, small_config):
        target = tmp_path / "deep" / "nested" / "t.csv"
        code = main(["generate", "--config", small_config, "--trace", str(target)])
        assert code == 0
        assert len(load_trace(target)) == 20

    def test_task_count_flag_overrides_the_config(self, tmp_path, small_config):
        out = tmp_path / "t.csv"
        main(["generate", "--config", small_config, "--trace", str(out), "--tasks", "7"])
        assert len(load_trace(out)) == 7

    def test_same_seed_same_bytes(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", small_config, "--trace", str(a), "--seed", "9"])
        main(["generate", "--config", small_config, "--trace", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_trace(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", small_config, "--trace", str(a), "--seed", "9"])
        main(["generate", "--config", small_config, "--trace", str(b), "--seed", "10"])
        assert a.read_bytes() != b.read_bytes()


class TestRun:
    def test_produces_records_and_summary(self, tmp_path, small_config, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--config", small_config, "--scheduler", "daa",
            "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        rows = read_csv(out / "records.csv")
        assert tuple(rows[0]) == RECORD_COLUMNS
        assert len(rows) == 21
        executors = {row[3] for row in rows[1:]}
        assert executors <= {"0", "1", "2", "cloud"}
        summary_rows = read_csv(out / "summary.csv")
        assert summary_rows[0][:2] == ["scheduler", "seed"]
        assert summary_rows[1][0] == "daa"
        assert "awt" in capsys.readouterr().out

    def test_accepts_an_explicit_trace(self, tmp_path, small_config):
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", small_config, "--trace", str(trace_path), "--seed", "8"])
        out = tmp_path / "out"
        code = main([
            "run", "--config", small_config, "--trace", str(trace_path),
            "--scheduler", "round-robin", "--out", str(out),
        ])
        assert code == 0
        assert (out / "records.csv").exists()

    def test_a_trace_with_a_long_plain_name_runs(self, tmp_path):
        # no field has a size limit: a 200,000-character name loads as any other
        name = "x" * 200_000
        trace = tmp_path / "wide.csv"
        trace.write_text(TRACE_HEADER + f"0,1,0,{name},sensitive,1,1,1,0,\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--trace", str(trace), "--scheduler", "daa", "--out", str(out)]) == 0
        assert len(read_csv(out / "records.csv")) == 2
        assert load_trace(trace)[0].profile.benchmark == name

    @pytest.mark.parametrize("name", [5, "a,b", 'a"b', "a\rb", "a\nb"],
                             ids=["int", "comma", "quote", "cr", "lf"])
    def test_a_catalog_name_outside_the_name_rule_exits_2(self, tmp_path, capsys, name):
        entry = {"name": name, "class": "sensitive", "base_service_ms": 1.0,
                 "mobile_ms": 1.0, "cloud_ms": 1.0, "data_bytes": 0.0}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({"catalog": [entry | {"name": "x"}, entry]}),
                        encoding="utf-8")
        code = main(["generate", "--config", str(path), "--trace", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: catalog[1]")
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            main([
                "run", "--config", small_config, "--scheduler", "daa",
                "--out", str(out), "--seed", "11",
            ])
            outs.append(out)
        assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()

    def test_json_lines_summary(self, tmp_path, small_config):
        out = tmp_path / "out"
        main([
            "run", "--config", small_config, "--scheduler", "greedy",
            "--out", str(out), "--format", "json-lines", "--seed", "2",
        ])
        payload = json.loads((out / "summary.jsonl").read_text())
        assert payload["scheduler"] == "greedy"
        assert payload["task_count"] == 20
        assert set(payload["per_cloudlet_makespan"]) == {"0", "1", "2"}

    def test_cloud_only_routes_everything_to_the_cloud(self, tmp_path, small_config):
        out = tmp_path / "out"
        main([
            "run", "--config", small_config, "--scheduler", "cloud-only",
            "--out", str(out), "--seed", "4",
        ])
        rows = read_csv(out / "records.csv")
        assert {row[3] for row in rows[1:]} == {"cloud"}
        # every makespan is 0: nothing ran on a cloudlet
        summary = read_csv(out / "summary.csv")
        by_name = dict(zip(summary[0], summary[1]))
        assert by_name["makespan_max"] == "0"

    def test_every_delay_ends_before_its_deadline_however_many_it_takes(self, tmp_path):
        # a 50 ms quantum at lambda 4 takes one task through 1,338 delays
        config_path = tmp_path / "config.yaml"
        config_path.write_text("scheduler: {delay_quantum_ms: 50}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--scheduler", "daa", "--lambda", "4",
                     "--tasks", "400", "--out", str(out)]) == 0
        config = load_config(config_path).override(arrival_rate=4.0, task_count=400)
        deadlines = {task.id: task.deadline
                     for task in generate_trace(config, derive_seed(config.seed, "trace"))}
        with open(out / "records.csv", newline="") as fh:
            delayed = [row for row in csv.DictReader(fh) if int(row["delays"]) > 0]
        assert max(int(row["delays"]) for row in delayed) > 1000
        for row in delayed:
            assert float(row["assign_ms"]) < deadlines[int(row["task_id"])], row

    def test_scheduler_flag_is_mandatory(self, tmp_path, small_config):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", small_config, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_scheduler_token_fails_usage(self, tmp_path, small_config):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--config", small_config, "--scheduler", "random",
                "--out", str(tmp_path),
            ])
        assert exc.value.code == 2


def csv_writer_row(r):
    """One records.csv row as the csv.writer based writer built it."""
    if r.bound_violated is None:
        violated = ""
    else:
        violated = "true" if r.bound_violated else "false"
    return [
        str(r.task_id),
        r.task_class.value,
        str(r.daemon_id),
        "cloud" if r.executor is None else str(r.executor),
        format_number(r.assign_time),
        format_number(r.start_time),
        format_number(r.completion_time),
        format_number(r.turnaround),
        format_number(r.service_time),
        format_number(r.weighted_turnaround),
        format_number(r.speedup),
        str(r.delays_taken),
        violated,
    ]


times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 12800.0, 2.0**53 - 1, 2.0**53, -(2.0**53), 1e16, 1e300,
                     5e-324, 0.1, 1234.000244140625]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
records = st.builds(
    TaskRecord,
    task_id=st.integers(0, 2**40),
    task_class=st.sampled_from(TaskClass),
    daemon_id=st.integers(0, 1000),
    executor=st.one_of(st.none(), st.integers(0, 1000)),
    arrival_time=times,
    assign_time=times,
    start_time=times,
    completion_time=times,
    turnaround=times,
    service_time=times.filter(lambda x: x != 0),
    speedup=times,
    delays_taken=st.integers(0, 50),
    bound_violated=st.sampled_from([None, True, False]),
)


@st.composite
def sharing_records(draw):
    """Rows whose values repeat, as a run's do: many start when they are
    assigned, and turnarounds, service times and speedups come from a small
    pool shared across rows, with 0.0/-0.0 and int/float twins in it."""
    pool = draw(st.lists(times, min_size=1, max_size=4)) + [0.0, -0.0, 12800, 12800.0]
    shared = st.sampled_from(pool)
    rows = []
    for _ in range(draw(st.integers(9, 24))):
        row = draw(records)
        assign = draw(shared | times)
        start = draw(st.sampled_from([assign, -assign]) | times)
        rows.append(row._replace(
            assign_time=assign, start_time=start, turnaround=draw(shared),
            service_time=draw(shared.filter(lambda x: x != 0)), speedup=draw(shared)))
    return rows


class TestRecordsFile:
    @given(rows=st.lists(records, max_size=8) | sharing_records())
    def test_bytes_equal_csv_writer(self, rows):
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(csv_writer_row(r) for r in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            write_records_csv(rows, path)
            with open(path, "rb") as fh:
                assert fh.read() == want.getvalue().encode("utf-8")


class TestCompare:
    def test_small_sweep(self, tmp_path, small_config, capsys):
        out = tmp_path / "out"
        code = main([
            "compare", "--config", small_config, "--scheduler", "daa,cloud-only",
            "--lambda", "1.0", "--seeds", "1..2", "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        rows = read_csv(out / "comparison.csv")
        assert rows[0][:4] == ["scheduler", "lambda", "replicates", "seeds"]
        assert {row[0] for row in rows[1:]} == {"daa", "cloud-only"}
        assert all(row[2] == "2" for row in rows[1:])
        assert all(row[3] == "1,2" for row in rows[1:])
        table = (out / "comparison.txt").read_text()
        assert "±" in table
        assert table in capsys.readouterr().out

    def test_rows_cover_the_scheduler_lambda_grid(self, tmp_path, small_config):
        out = tmp_path / "out"
        main([
            "compare", "--config", small_config, "--scheduler", "daa",
            "--scheduler", "greedy", "--lambda", "1.0", "--lambda", "2.0",
            "--seeds", "3", "--out", str(out), "--seed", "1",
        ])
        rows = read_csv(out / "comparison.csv")
        assert len(rows) == 5
        assert {(r[0], r[1]) for r in rows[1:]} == {
            ("daa", "1"), ("daa", "2"), ("greedy", "1"), ("greedy", "2"),
        }

    def test_json_lines_table(self, tmp_path, small_config):
        out = tmp_path / "out"
        main([
            "compare", "--config", small_config, "--scheduler", "two-choices",
            "--lambda", "1.5", "--seeds", "1..2", "--out", str(out),
            "--format", "json-lines", "--seed", "1",
        ])
        lines = (out / "comparison.jsonl").read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["scheduler"] == "two-choices"
        assert payload["lambda"] == 1.5
        assert set(payload["awt"]) == {"mean", "std"}

    def test_run_comparison_returns_the_rows_the_json_lines_table_holds(self, tmp_path,
                                                                          small_config):
        # the writer takes the rows as they are, with no translation between
        out = tmp_path / "out"
        assert main(["compare", "--config", small_config, "--scheduler", "daa,greedy",
                     "--lambda", "1,2", "--seeds", "1..2", "--out", str(out),
                     "--format", "json-lines", "--seed", "1"]) == 0
        rows = run_comparison(load_config(small_config), ["daa", "greedy"], [1.0, 2.0], [1, 2], 1)
        assert len(rows) == 4
        assert rows == read_strict_json_lines(out / "comparison.jsonl")

    def test_the_table_spells_each_lambda_as_the_csv_does(self, tmp_path, small_config):
        # with :g both rates would print as 1, leaving two rows with one label
        out = tmp_path / "out"
        assert main([
            "compare", "--config", small_config, "--scheduler", "daemon-only",
            "--lambda", "1,1.0000001", "--seeds", "1", "--out", str(out),
        ]) == 0
        table = (out / "comparison.txt").read_text().splitlines()
        assert [line.split()[1] for line in table[1:]] == ["1", "1.0000001"]
        assert [row[1] for row in read_csv(out / "comparison.csv")[1:]] == ["1", "1.0000001"]

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            main([
                "compare", "--config", small_config, "--scheduler", "daa",
                "--lambda", "1.0", "--seeds", "1..3", "--out", str(out), "--seed", "6",
            ])
            outs.append(out)
        assert (outs[0] / "comparison.csv").read_bytes() == (outs[1] / "comparison.csv").read_bytes()

    def test_unknown_scheduler_in_the_list(self, tmp_path, small_config):
        code = main([
            "compare", "--config", small_config, "--scheduler", "daa,warp",
            "--seeds", "1..1", "--out", str(tmp_path), "--seed", "1",
        ])
        assert code == 2

    def test_bad_seed_ranges(self, tmp_path, small_config):
        for bad in ("x..y", "5..3", "7..", ""):
            code = main([
                "compare", "--config", small_config, "--scheduler", "daa",
                "--seeds", bad, "--out", str(tmp_path), "--seed", "1",
            ])
            assert code == 2, bad

    def test_bad_lambda_list(self, tmp_path, small_config):
        code = main([
            "compare", "--config", small_config, "--scheduler", "daa",
            "--lambda", "fast", "--seeds", "1..1", "--out", str(tmp_path), "--seed", "1",
        ])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--scheduler", "daa,greedy", "--scheduler", "daa", "--lambda", "1"],
         "error: compare lists scheduler daa more than once\n"),
        (["--scheduler", "daa", "--lambda", "1,2", "--lambda", "1.0"],
         "error: compare lists lambda 1 more than once\n"),
    ], ids=["scheduler", "lambda"])
    def test_a_repeated_value_exits_2_naming_it(self, tmp_path, small_config, capsys, flags,
                                                message):
        # pooled, a repeated value's runs would print as one row with doubled replicates
        out = tmp_path / "out"
        code = main(["compare", "--config", small_config, *flags, "--seeds", "1..3",
                     "--out", str(out), "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("lambdas, replicates, message", [
        ([2, 1.5, 2.0], [1], "lambda 2"), ([1.0], [1, 2, 1], "replicate 1")])
    def test_run_comparison_rejects_a_repeated_value(self, lambdas, replicates, message):
        # 2 and 2.0 are one λ; the seed range of the command line cannot repeat a replicate
        with pytest.raises(ConfigError, match=f"^compare lists {message} more than once$"):
            run_comparison(EdgeCloudConfig(task_count=20), ["daemon-only"], lambdas, replicates, 7)


class TestMeanStd:
    """The sweep's mean and sample deviation give the same bits on every Python."""

    def test_the_deviation_is_correctly_rounded(self):
        # statistics.stdev on Python 3.10 gives 0x1.78647e8221a16p-1, an ulp short
        mean, std = _mean_std([2.3, 2.58, 1.19])
        assert (mean.hex(), std.hex()) == ("0x1.02fc962fc9630p+1", "0x1.78647e8221a17p-1")

    def test_the_mean_is_the_correctly_rounded_sum_over_n(self):
        assert _mean_std([1.0, 1e-16, 1e-16])[0] == 1.0000000000000002 / 3
        assert _mean_std([7.25]) == (7.25, 0.0)
        assert _mean_std([0.1] * 5) == (0.1, 0.0)

    @pytest.mark.parametrize("values, mean", [
        ([math.inf, 2.0], math.inf), ([1.0, math.inf, math.inf], math.inf),
        ([math.nan, 2.0], math.nan), ([math.inf, math.nan], math.nan),
        ([math.inf, 1e308, 1e308], math.inf), ([math.nan, 1e308, 1e308], math.nan)])
    def test_a_value_that_is_not_finite_has_no_deviation(self, values, mean):
        got_mean, std = _mean_std(values)
        assert got_mean == mean or math.isnan(got_mean) and math.isnan(mean)
        assert math.isnan(std)

    @pytest.mark.parametrize("values", [
        [1e308, 1e308], [sys.float_info.max, sys.float_info.max, 1.0],
        [1.5e308, 1.25e308, 0.1, -2.5e307]])
    def test_a_sum_that_overflows_has_the_correctly_rounded_mean(self, values):
        # fsum raises "intermediate overflow" here, though the mean of finite values is finite
        with pytest.raises(OverflowError):
            math.fsum(values)
        mean, std = _mean_std(values)
        assert mean == float(sum(map(Fraction, values)) / len(values))
        assert math.isfinite(std)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev is correctly rounded from 3.11")
    @given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=30))
    def test_matches_statistics_where_it_is_correctly_rounded(self, values):
        assert _mean_std(values) == (statistics.fmean(values), statistics.stdev(values))


class TestRoundingEdges:
    """Runs whose metrics round to the edge of the float range, or past it, still write them."""

    def test_equal_makespans_summarize_to_their_value(self, tmp_path):
        config = _write(tmp_path, "c.yaml", "cloudlets: {count: 3, vm_counts: [1, 1, 1]}\n"
                                            "network: {daemon_rtt_ms: 0}\n")
        trace = _write(tmp_path, "t.csv", TRACE_HEADER + "".join(
            f"{i},0,{i},x,sensitive,0.1,1,1,0,\n" for i in range(3)))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--trace", trace, "--scheduler", "daemon-only",
                     "--out", str(out)]) == 0
        [header, row] = read_csv(out / "summary.csv")
        summary = dict(zip(header, row))
        assert [summary[f"makespan_{m}"] for m in ("min", "max", "avg")] == ["0.1"] * 3

    def test_compare_writes_an_infinite_mean_as_run_does(self, tmp_path, capsys):
        config = _write(tmp_path, "c.yaml", "catalog:\n  - {name: tiny, class: sensitive,"
                        " base_service_ms: 1.0e-310, mobile_ms: 1, cloud_ms: 1, data_bytes: 0}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--tasks", "5", "--seeds", "1..2",
                     "--scheduler", "daemon-only", "--out", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        stats = [dict(zip(rows[0], row)) for row in rows[1:]]
        assert stats and all((s["awt_mean"], s["awt_std"]) == ("inf", "nan") for s in stats)
        assert "inf ± nan" in capsys.readouterr().out
        assert main(["run", "--config", config, "--tasks", "5", "--scheduler", "daemon-only",
                     "--out", str(tmp_path / "run")]) == 0
        [header, row] = read_csv(tmp_path / "run" / "summary.csv")
        assert dict(zip(header, row))["awt"] == "inf"

    def test_json_lines_spell_a_non_finite_value_as_the_csv_does(self, tmp_path):
        config = _write(tmp_path, "c.yaml", "catalog:\n  - {name: tiny, class: sensitive,"
                        " base_service_ms: 1.0e-310, mobile_ms: 1, cloud_ms: 1, data_bytes: 0}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--tasks", "5", "--seeds", "1..2",
                     "--scheduler", "daemon-only", "--format", "json-lines", "--out", str(out)]) == 0
        rows = read_strict_json_lines(out / "comparison.jsonl")
        assert rows and all(row["awt"] == {"mean": "inf", "std": "nan"} for row in rows)
        assert all(isinstance(row["makespan_max"]["mean"], float) for row in rows)
        run = tmp_path / "run"
        assert main(["run", "--config", config, "--tasks", "5", "--scheduler", "daemon-only",
                     "--format", "json-lines", "--out", str(run)]) == 0
        [summary] = read_strict_json_lines(run / "summary.jsonl")
        assert summary["awt"] == "inf"
        assert isinstance(summary["avg_speedup"], float)

    def test_compare_averages_metrics_whose_sum_overflows(self, tmp_path):
        # two replicates of one task each: the makespans sum past the float range
        config = _write(tmp_path, "c.yaml", "catalog:\n  - {name: big, class: sensitive,"
                        " base_service_ms: 1.0e+308, mobile_ms: 1.0e+308, cloud_ms: 1,"
                        " data_bytes: 0}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--tasks", "1", "--seeds", "1..2",
                     "--scheduler", "daemon-only", "--lambda", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        [stats] = [dict(zip(rows[0], row)) for row in rows[1:]]
        assert (stats["makespan_max_mean"], stats["makespan_max_std"]) == ("1e+308", "0")
        assert main(["run", "--config", config, "--tasks", "1", "--scheduler", "daemon-only",
                     "--out", str(tmp_path / "run")]) == 0
        [header, row] = read_csv(tmp_path / "run" / "summary.csv")
        assert dict(zip(header, row))["makespan_max"] == "1e+308"


TINY_CATALOG = ("catalog:\n  - {name: tiny, class: sensitive, base_service_ms: 1.0e-310,"
                " mobile_ms: 1, cloud_ms: 1, data_bytes: 0}\n")


class TestCsvAndJsonLinesAgree:
    """One run and one sweep, written once in each format, hold the same values: each CSV
    cell is its JSON value spelled by ``format_number``, a ``<field>_mean`` or ``_std``
    column is a key of the field's JSON mapping, and a comma-joined cell is a JSON list."""

    @staticmethod
    def spell(value):
        if isinstance(value, list):
            return ",".join(map(TestCsvAndJsonLinesAgree.spell, value))
        # a string is a token, or a non-finite float already spelled as the CSV does
        return value if isinstance(value, str) else format_number(value)

    @staticmethod
    def both(tmp_path, argv, name):
        """The CSV cells by column, row by row, and the JSON-lines rows of one command."""
        for fmt in ("csv", "json-lines"):
            assert main([*argv, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        header, *rows = read_csv(tmp_path / "csv" / f"{name}.csv")
        return ([dict(zip(header, row, strict=True)) for row in rows],
                read_strict_json_lines(tmp_path / "json-lines" / f"{name}.jsonl"))

    @pytest.mark.parametrize("catalog", [None, TINY_CATALOG], ids=["finite", "non-finite"])
    def test_run_summary(self, tmp_path, small_config, capsys, catalog):
        config = small_config if catalog is None else _write(tmp_path, "c.yaml", catalog)
        [cells], [payload] = self.both(tmp_path, [
            "run", "--config", config, "--tasks", "20", "--scheduler", "greedy", "--seed", "3",
        ], "summary")
        capsys.readouterr()
        assert set(payload) == set(cells) | {"per_cloudlet_makespan"}
        assert not any(column.startswith("per_cloudlet") for column in cells)
        assert cells == {column: self.spell(payload[column]) for column in cells}
        cloudlets = 3 if catalog is None else 10
        assert set(payload["per_cloudlet_makespan"]) == set(map(str, range(cloudlets)))
        assert (payload["awt"] == "inf") == (catalog is not None)

    @pytest.mark.parametrize("catalog", [None, TINY_CATALOG], ids=["finite", "non-finite"])
    def test_comparison_table(self, tmp_path, small_config, capsys, catalog):
        config = small_config if catalog is None else _write(tmp_path, "c.yaml", catalog)
        rows, payloads = self.both(tmp_path, [
            "compare", "--config", config, "--tasks", "20", "--scheduler", "daa,daemon-only",
            "--lambda", "1,2.5", "--seeds", "1..2", "--seed", "3",
        ], "comparison")
        capsys.readouterr()
        assert len(rows) == len(payloads) == 4
        for cells, payload in zip(rows, payloads):
            assert cells["seeds"] == "1,2" and payload["seeds"] == [1, 2]
            fields = {}
            for column, cell in cells.items():
                name, _, stat = column.rpartition("_")
                if stat in ("mean", "std"):
                    fields.setdefault(name, set()).add(stat)
                    assert cell == self.spell(payload[name][stat]), column
                else:
                    fields[column] = None
                    assert cell == self.spell(payload[column]), column
            assert set(fields) == set(payload)
            assert (payload["awt"] == {"mean": "inf", "std": "nan"}) == (catalog is not None)
            assert all(set(payload[name]) == stats for name, stats in fields.items() if stats)


class TestSeedPrecedence:
    """The base seed is ``--seed``, else the config's ``seed``, and nothing else."""

    def test_flag_beats_the_config(self, tmp_path, small_config, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", small_config, "--trace", str(a), "--seed", "5"])
        assert "(seed 5)" in capsys.readouterr().out
        main(["generate", "--config", small_config, "--trace", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_config_seed_is_the_last_resort(self, tmp_path, capsys):
        config_path = tmp_path / "c.yaml"
        save_config(EdgeCloudConfig(cloudlet_count=2, task_count=5, seed=777), config_path)
        main(["generate", "--config", str(config_path), "--trace", str(tmp_path / "t.csv")])
        assert "(seed 777)" in capsys.readouterr().out

    def test_an_exported_petrel_seed_is_ignored(self, tmp_path, small_config, capsys,
                                                monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", small_config, "--trace", str(a)])
        monkeypatch.setenv("PETREL_SEED", "321")
        main(["generate", "--config", small_config, "--trace", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert capsys.readouterr().out.count("(seed 1234)") == 2


def run_cli_subprocess(args, extra_env=None, preexec_fn=None):
    src = os.path.dirname(os.path.dirname(petrel.__file__))
    env = dict(os.environ, PYTHONPATH=src, **(extra_env or {}))
    return subprocess.run([sys.executable, "-m", "petrel.cli", *args],
                          capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


# runs each argument as a command in one fresh interpreter, then names which of the
# modules only a config file or JSON lines need that it has loaded
IMPORT_PROBE = """
import sys
import petrel, petrel.cli
for argv in sys.argv[1:]:
    assert petrel.cli.main(argv.split()) == 0, argv
print("loaded:", *sorted({"yaml", "json"} & set(sys.modules)))
"""


class TestImportsOnDemand:
    """PyYAML is imported only to read or write a config file, and json only to
    write JSON lines, so a command that needs neither does not pay for them."""

    def loaded(self, tmp_path, *commands):
        save_config(EdgeCloudConfig(cloudlet_count=3, task_count=20), tmp_path / "c.yaml")
        src = os.path.dirname(os.path.dirname(petrel.__file__))
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *commands], cwd=tmp_path,
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        (line,) = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
        return line.split()[1:]

    def test_importing_petrel_loads_neither(self, tmp_path):
        assert self.loaded(tmp_path) == []

    def test_csv_commands_load_neither(self, tmp_path):
        assert self.loaded(tmp_path, "generate --tasks 20 --trace t.csv",
                           "run --trace t.csv --scheduler daa --out r1",
                           "run --tasks 20 --lambda 4 --scheduler greedy --out r2",
                           "compare --tasks 10 --seeds 1..2 --lambda 1,2 --out c") == []

    @pytest.mark.parametrize("command", [
        "generate --config c.yaml --trace t.csv",
        "run --config c.yaml --scheduler daemon-only --out r",
        "compare --config c.yaml --seeds 1..2 --scheduler daa --out c",
    ])
    def test_a_config_file_loads_yaml(self, tmp_path, command):
        assert self.loaded(tmp_path, command) == ["yaml"]

    @pytest.mark.parametrize("command", [
        "run --tasks 20 --scheduler daa --format json-lines --out r",
        "compare --tasks 10 --seeds 1..2 --scheduler daa --format json-lines --out c",
    ])
    def test_json_lines_load_json(self, tmp_path, command):
        assert self.loaded(tmp_path, command) == ["json"]


class TestTraceFilesAreUtf8:
    """Trace files are UTF-8 whatever the locale, as the other output files are."""

    C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def test_non_ascii_benchmark_under_the_c_locale(self, tmp_path):
        config_path = tmp_path / "c.yaml"
        config = EdgeCloudConfig(task_count=20, catalog=(
            Benchmark("caf\u00e9", TaskClass.LATENCY_SENSITIVE, 1000.0, 5000.0, 1000.0, 0.0),))
        save_config(config, config_path)
        trace_path = tmp_path / "t.csv"
        generate = run_cli_subprocess(["generate", "--config", str(config_path), "--trace",
                                       str(trace_path), "--seed", "3"], self.C_LOCALE)
        assert generate.returncode == 0, generate.stderr
        local = tmp_path / "local.csv"
        assert main(["generate", "--config", str(config_path), "--trace", str(local),
                     "--seed", "3"]) == 0
        assert trace_path.read_bytes() == local.read_bytes()
        assert ",caf\u00e9,".encode("utf-8") in trace_path.read_bytes()
        run = run_cli_subprocess(["run", "--trace", str(trace_path), "--scheduler",
                                  "daemon-only", "--out", str(tmp_path / "out")], self.C_LOCALE)
        assert run.returncode == 0, run.stderr
        assert [t.profile.benchmark for t in load_trace(trace_path)] == ["caf\u00e9"] * 20


class TestExitCodes:
    def test_missing_trace_file_is_io(self, tmp_path, small_config):
        code = main([
            "run", "--config", small_config, "--trace", str(tmp_path / "absent.csv"),
            "--scheduler", "daa", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_malformed_trace_is_usage(self, tmp_path, small_config):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n1,2,3\n")
        code = main([
            "run", "--config", small_config, "--trace", str(bad),
            "--scheduler", "daa", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_bad_config_is_usage(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("cloudlets:\n  count: -3\n")
        code = main(["generate", "--config", str(bad), "--trace", str(tmp_path / "t.csv")])
        assert code == 2

    def test_trace_naming_unknown_daemons_fails_at_runtime(self, tmp_path, small_config):
        wide_config = tmp_path / "wide.yaml"
        save_config(EdgeCloudConfig(cloudlet_count=10, task_count=5), wide_config)
        trace_path = tmp_path / "wide_trace.csv"
        main(["generate", "--config", str(wide_config), "--trace", str(trace_path), "--seed", "1"])
        code = main([
            "run", "--config", small_config, "--trace", str(trace_path),
            "--scheduler", "daemon-only", "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["run", "--scheduler", "daa"],
        ["run", "--scheduler", "two-choices"],
        ["compare", "--scheduler", "greedy,daa", "--seeds", "1"],
    ])
    def test_sampling_policies_need_two_cloudlets(self, tmp_path, capsys, command):
        lone = tmp_path / "lone.yaml"
        save_config(EdgeCloudConfig(cloudlet_count=1, task_count=5), lone)
        code = main(command + ["--config", str(lone), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cloudlets.count" in err
        assert err.count("\n") == 1

    def test_single_cloudlet_daa_exits_without_a_traceback(self, tmp_path):
        lone = tmp_path / "lone.yaml"
        save_config(EdgeCloudConfig(cloudlet_count=1, task_count=5), lone)
        proc = run_cli_subprocess(["run", "--scheduler", "daa", "--config", str(lone),
                                   "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cloudlets.count:")

    @pytest.mark.parametrize("raised, line", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"
                     " and data type float64"),
         "out of memory: Unable to allocate 745. GiB for an array with shape (100000000000,)"
         " and data type float64\n"),
        (MemoryError(), "out of memory: an allocation failed\n"),
    ], ids=["numpy", "bare"])
    def test_running_out_of_memory_is_one_line_and_exit_1(self, monkeypatch, capsys, tmp_path,
                                                          raised, line):
        def generate_trace(config, seed):
            raise raised

        monkeypatch.setattr(petrel.cli, "generate_trace", generate_trace)
        code = main(["generate", "--tasks", "5", "--trace", str(tmp_path / "t.csv")])
        assert (code, capsys.readouterr().err) == (1, line)

    def test_the_largest_task_count_runs_out_of_memory_in_one_line(self, tmp_path):
        # numpy asks for 8 * (2**60 - 1) bytes and gets a MemoryError; the child runs under
        # a 2 GiB address-space limit, so a build that did start filling memory stops early
        resource = pytest.importorskip("resource")

        def limit_memory():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        config_path = _write(tmp_path, "c.yaml", f"trace: {{task_count: {2**60 - 1}}}\n")
        proc = run_cli_subprocess(["generate", "--config", config_path,
                                   "--trace", str(tmp_path / "t.csv")], preexec_fn=limit_memory)
        assert proc.returncode == 1
        assert proc.stderr.startswith("out of memory: ")
        assert proc.stderr.count("\n") == 1

    def test_single_cloudlet_deterministic_policies_still_run(self, tmp_path, capsys):
        lone = tmp_path / "lone.yaml"
        save_config(EdgeCloudConfig(cloudlet_count=1, task_count=5), lone)
        for name in ("greedy", "daemon-only"):
            code = main(["run", "--scheduler", name, "--config", str(lone),
                         "--out", str(tmp_path / name)])
            assert code == 0


TRACE_HEADER = ("task_id,arrival_ms,daemon_id,benchmark,class,base_service_ms,mobile_ms,"
                "cloud_ms,data_bytes,bound_ms\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


# a finite mean gap whose running sum over 200 tasks still overflows the float range
OVERFLOWING_ARRIVALS = "trace: {arrival_rate: 1.0e-305, task_count: 200}\n"
# a catalog entry whose name holds a comma, which no trace field may hold
COMMA_NAME = ('catalog:\n  - {name: "a,b", class: sensitive, base_service_ms: 1, mobile_ms: 1,'
              " cloud_ms: 1, data_bytes: 0}\n")
# past Python's default limit of 4,300 digits for reading an int from text
LONG_INT = "1" * 4400
ZERO_TURNAROUND = "simulation failed: task 0: turnaround rounds to 0"
# each count key and its range
COUNT_BOUNDS = (("trace.task_count", ">= 0 and <= 2**60 - 1"),
                ("cloudlets.count", ">= 1 and <= 2**30"))
# a finite arrival whose completion on any cloudlet overflows the float range
HUGE = TRACE_HEADER + "0,1.7e308,0,x,sensitive,1e308,1e308,800,2000,\n"
OVERFLOW = "simulation failed: task 0: completion time overflows the float range"
# each catalog value is finite, but the tolerant bound, or the sum of the weights, is not
OVERFLOWING_BOUND = ("catalog:\n  - {name: big, class: tolerant, base_service_ms: 1.0e+300,"
                     " mobile_ms: 1, cloud_ms: 1, data_bytes: 0, bound_factor: 1.0e+10}\n")
OVERFLOWING_WEIGHTS = "catalog:\n" + "".join(
    f"  - {{name: {name}, class: sensitive, base_service_ms: 1, mobile_ms: 1, cloud_ms: 1,"
    " data_bytes: 0, weight: 1.0e+308}\n" for name in "ab")
# two finite tolerant means whose sum, and so the default delay quantum, overflows
OVERFLOWING_QUANTUM = "catalog:\n" + "".join(
    f"  - {{name: {name}, class: tolerant, base_service_ms: 1.0e+308, mobile_ms: 1, cloud_ms: 1,"
    " data_bytes: 0, bound_factor: 1.5}\n" for name in "ab")
CATALOG_FAULTS = (
    ("bound", OVERFLOWING_BOUND,
     "error: catalog[0]: benchmark big: bound_factor * base_service_ms must be finite\n"),
    ("weights", OVERFLOWING_WEIGHTS, "error: catalog: weights must have a finite sum\n"),
    ("quantum", OVERFLOWING_QUANTUM, "error: catalog: the default delay quantum, the mean"
     " base_service_ms / 40, must be finite and > 0; set scheduler.delay_quantum_ms\n"),
)
CATALOG_COMMANDS = (
    ("generate", ["generate"]),
    ("run", ["run", "--scheduler", "daa"]),
    ("compare", ["compare", "--seeds", "1"]),
)


def error_path(case, code, prefix, argv):
    """One CLI failure: ``argv(tmp_dir)`` must exit ``code`` with one stderr line.

    ``prefix`` starts that line; ``{dir}`` in it stands for the scratch directory.
    """
    return pytest.param(code, prefix, argv, id=case)


def _count_file(d, key, count):
    """A config file that sets ``key``, a dotted path, to ``count``."""
    return _write(d, "c.yaml", "{}: {{{}: {}}}\n".format(*key.split("."), count))


ERROR_PATHS = [
    error_path("run-zero-tasks", 2, "error: trace.task_count:",
               lambda d: ["run", "--scheduler", "daa", "--tasks", "0"]),
    error_path("run-header-only-trace", 2, "error: {dir}/empty.csv: the trace has no tasks",
               lambda d: ["run", "--scheduler", "daa",
                          "--trace", _write(d, "empty.csv", TRACE_HEADER)]),
    error_path("compare-zero-tasks", 2, "error: trace.task_count:",
               lambda d: ["compare", "--tasks", "0", "--seeds", "1"]),
    error_path("missing-trace", 1, "i/o error:",
               lambda d: ["run", "--scheduler", "daa", "--trace", str(d / "absent.csv")]),
    error_path("malformed-trace", 2, "error: line 1:",
               lambda d: ["run", "--scheduler", "daa",
                          "--trace", _write(d, "bad.csv", "not,a,trace\n")]),
    error_path("non-finite-trace-field", 2, "error: line 2: field 'arrival_ms'",
               lambda d: ["run", "--scheduler", "daa", "--trace",
                          _write(d, "nan.csv", TRACE_HEADER + "0,nan,0,x,sensitive,1,1,1,0,\n")]),
    error_path("quoted-trace-name", 2, "error: line 3: task 1: benchmark name: expected no"
               """ ',', '"', CR or LF, got '"a"'\n""",
               lambda d: ["run", "--scheduler", "daa", "--trace", _write(
                   d, "quoted.csv", TRACE_HEADER + '0,1,0,a,sensitive,1,1,1,0,\n'
                   '1,2,0,"a",sensitive,1,1,1,0,\n')]),
    error_path("trace-row-after-blank-lines", 2,
               "error: line 5: field 'arrival_ms' is not a valid float: 'x'\n",
               lambda d: ["run", "--scheduler", "daa", "--trace", _write(
                   d, "blank.csv", TRACE_HEADER + "0,1,0,a,sensitive,1,1,1,0,\n\r\n\n"
                   "2,x,0,x,sensitive,1,1,1,0,\n")]),
    error_path("lone-cr-in-a-trace", 2, "error: line 2: a '\\r' that is not followed by '\\n'\n",
               lambda d: ["run", "--scheduler", "daa", "--trace", _write(
                   d, "cr.csv", TRACE_HEADER + "0,1\r,0,a,sensitive,1,1,1,0,\n")]),
    error_path("unknown-trace-class", 2, "error: line 2: field 'class'",
               lambda d: ["run", "--scheduler", "daa", "--trace",
                          _write(d, "cls.csv", TRACE_HEADER + "0,1,0,x,urgent,1,1,1,0,\n")]),
    error_path("unknown-daemon", 1, "simulation failed:",
               lambda d: ["run", "--scheduler", "daemon-only", "--trace",
                          _write(d, "far.csv", TRACE_HEADER + "0,1,99,x,sensitive,1,1,1,0,\n")]),
    error_path("zero-turnaround-daemon-only", 1, ZERO_TURNAROUND,
               lambda d: ["run", "--scheduler", "daemon-only", "--lambda", "1e-20", "--tasks", "5"]),
    error_path("zero-turnaround-daa", 1, ZERO_TURNAROUND,
               lambda d: ["run", "--scheduler", "daa", "--lambda", "1e-20", "--tasks", "5"]),
    error_path("zero-turnaround-compare", 1, ZERO_TURNAROUND,
               lambda d: ["compare", "--lambda", "1e-20", "--seeds", "1..2", "--tasks", "5"]),
    error_path("zero-turnaround-trace", 1, ZERO_TURNAROUND,
               lambda d: ["run", "--scheduler", "daemon-only", "--trace",
                          _write(d, "late.csv", TRACE_HEADER + "0,1e25,0,x,sensitive,1,1,1,0,\n")]),
    error_path("overflowing-completion-trace", 1, OVERFLOW,
               lambda d: ["run", "--scheduler", "daemon-only", "--trace", _write(d, "over.csv", HUGE)]),
    error_path("overflowing-completion-trace-greedy", 1, OVERFLOW,
               lambda d: ["run", "--scheduler", "greedy", "--trace", _write(d, "over.csv", HUGE)]),
    error_path("non-utf8-trace", 2, "error: {dir}/latin1.csv: not UTF-8 text: byte 0xe9",
               lambda d: ["run", "--scheduler", "daa", "--trace", _write(
                   d, "latin1.csv",
                   (TRACE_HEADER + "0,1,0,caf\xe9,sensitive,1,1,1,0,\n").encode("latin-1"))]),
    error_path("non-utf8-config", 2, "error: {dir}/c.yaml: not UTF-8 text: byte 0xe9",
               lambda d: ["generate", "--config", _write(
                   d, "c.yaml", "# caf\xe9\ntrace: {task_count: 5}\n".encode("latin-1"))]),
    error_path("missing-config", 2, "error: cannot read config",
               lambda d: ["run", "--scheduler", "daa", "--config", str(d / "absent.yaml")]),
    error_path("catalog-name-with-comma", 2, "error: catalog[0]: benchmark name: expected no"
               """ ',', '"', CR or LF, got 'a,b'\n""",
               lambda d: ["generate", "--config", _write(d, "c.yaml", COMMA_NAME)]),
    error_path("removed-config-key", 2, "error: scheduler.max_delays: unknown key\n",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", "scheduler: {max_delays: 1000}\n")]),
    error_path("removed-time-unit-key", 2, "error: trace.time_unit_ms: unknown key\n",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", "trace: {time_unit_ms: 1000}\n")]),
    error_path("config-int-too-long-to-read", 2,
               "error: {dir}/c.yaml: cannot read a value: Exceeds the limit",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", f"trace: {{task_count: {LONG_INT}}}\n")]),
    error_path("config-impossible-date", 2,
               "error: {dir}/c.yaml: cannot read a value: month must be in 1..12\n",
               lambda d: ["generate", "--config", _write(d, "c.yaml", "seed: 2001-13-01\n")]),
    *(error_path(f"{key}-past-int64", 2, f"error: {key}: must be {bound}\n",
                 lambda d, key=key: ["generate", "--config", _count_file(d, key, 10**30)])
      for key, bound in COUNT_BOUNDS),
    # the first counts whose arrays numpy refuses to size
    error_path("trace.task_count-past-numpy-limit", 2,
               "error: trace.task_count: must be >= 0 and <= 2**60 - 1\n",
               lambda d: ["generate", "--config", _count_file(d, "trace.task_count", 2**60)]),
    error_path("cloudlets.count-past-numpy-limit", 2,
               "error: cloudlets.count: must be >= 1 and <= 2**30\n",
               lambda d: ["generate", "--config", _count_file(d, "cloudlets.count", 2**30 + 1)]),
    error_path("bad-config-value", 2, "error: cloudlets.count:",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", "cloudlets:\n  count: -3\n")]),
    error_path("repeated-config-key", 2, "error: {dir}/c.yaml: line 1: repeated key 'task_count'\n",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", "trace: {task_count: 5, task_count: 7}\n")]),
    error_path("invalid-yaml-syntax", 2, "error: {dir}/c.yaml: line 2: invalid YAML: expected the"
               " node content, but found '<stream end>'\n",
               lambda d: ["generate", "--config", _write(d, "c.yaml", "a: [\n")]),
    error_path("invalid-yaml-python-tag", 2, "error: {dir}/c.yaml: line 1: invalid YAML: could not"
               " determine a constructor for the tag 'tag:yaml.org,2002:python/object:os.system'\n",
               lambda d: ["generate", "--config",
                          _write(d, "c.yaml", '!!python/object:os.system "echo hi"\n')]),
    error_path("invalid-yaml-unhashable-key", 2,
               "error: {dir}/c.yaml: line 1: invalid YAML: found unhashable key\n",
               lambda d: ["generate", "--config", _write(d, "c.yaml", "{? [1,2] : 3}\n")]),
    error_path("config-top-level-list", 2, "error: <root>: expected a mapping, got list",
               lambda d: ["generate", "--config", _write(d, "c.yaml", "- 1\n- 2\n")]),
    error_path("config-top-level-scalar", 2, "error: <root>: expected a mapping, got int",
               lambda d: ["run", "--scheduler", "daa", "--config", _write(d, "c.yaml", "7\n")]),
    error_path("infinite-mean-arrival-gap", 2, "error: trace.arrival_rate:",
               lambda d: ["generate", "--config", _write(
                   d, "c.yaml", "trace: {arrival_rate: 1.0e-310}\n")]),
    error_path("generate-overflowing-arrivals", 2, "error: trace.arrival_rate: the arrival times"
               " of 200 tasks overflow the float range; raise arrival_rate\n",
               lambda d: ["generate", "--config", _write(d, "c.yaml", OVERFLOWING_ARRIVALS)]),
    error_path("run-overflowing-arrivals", 2, "error: trace.arrival_rate:",
               lambda d: ["run", "--scheduler", "daa", "--config",
                          _write(d, "c.yaml", OVERFLOWING_ARRIVALS)]),
    *(error_path(f"{command}-overflowing-{fault}", 2, message,
                 lambda d, argv=argv, text=text: [*argv, "--config", _write(d, "c.yaml", text)])
      for fault, text, message in CATALOG_FAULTS for command, argv in CATALOG_COMMANDS),
    error_path("non-finite-config", 2, "error: network.cloud_rtt_ms:",
               lambda d: ["run", "--scheduler", "daa", "--tasks", "5", "--config",
                          _write(d, "c.yaml", "network:\n  cloud_rtt_ms: .inf\n")]),
    error_path("single-cloudlet-sampling", 2, "error: cloudlets.count:",
               lambda d: ["run", "--scheduler", "two-choices", "--tasks", "5", "--config",
                          _write(d, "c.yaml", "cloudlets:\n  count: 1\n")]),
    error_path("negative-task-count", 2, "error: trace.task_count:",
               lambda d: ["generate", "--tasks", "-1"]),
    error_path("bad-lambda", 2, "error: trace.arrival_rate:",
               lambda d: ["compare", "--lambda", "inf", "--seeds", "1"]),
    error_path("empty-seed-range", 2, "error: --seeds",
               lambda d: ["compare", "--seeds", "5..1"]),
    error_path("compare-empty-scheduler-list", 2,
               "error: compare needs at least one scheduler, one lambda, one seed\n",
               lambda d: ["compare", "--scheduler", ",", "--seeds", "1"]),
    error_path("unknown-compare-scheduler", 2, "error: unknown scheduler",
               lambda d: ["compare", "--scheduler", "random", "--seeds", "1"]),
    *(error_path(f"run-trace-with-{flag[2:]}", 2, "error: run --trace takes no --tasks or --lambda\n",
                 lambda d, flag=flag: ["run", "--scheduler", "daemon-only", "--trace", _write(
                     d, "t.csv", TRACE_HEADER + "0,1,0,x,sensitive,1,1,1,0,\n"), flag, "5"])
      for flag in ("--tasks", "--lambda")),
]


class TestEveryErrorPath:
    @pytest.mark.parametrize("code, prefix, argv", ERROR_PATHS)
    def test_one_line_and_the_documented_exit_code(self, tmp_path, code, prefix, argv):
        args = argv(tmp_path)
        out = (["--trace", str(tmp_path / "out.csv")] if args[0] == "generate"
               else ["--out", str(tmp_path / "out")])
        proc = run_cli_subprocess(args + out)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix.format(dir=tmp_path))
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [["run"], ["run", "--scheduler", "fifo"],
                                      ["compare", "--format", "xml"], ["simulate"],
                                      ["generate", "--paper-defaults"], ["generate", "--out", "x"]])
    def test_usage_errors_exit_2_without_a_traceback(self, argv):
        proc = run_cli_subprocess(argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: petrel")
        assert ": error: " in proc.stderr.splitlines()[-1]


class TestNonFiniteConfig:
    @pytest.mark.parametrize("key, yaml_text", [
        ("network.remote_rtt_range_ms", "network:\n  remote_rtt_range_ms: [50, .inf]\n"),
        ("cloudlets.speed_factor_range", "cloudlets:\n  speed_factor_range: [1.0, .inf]\n"),
        ("network.cloud_rtt_ms", "network:\n  cloud_rtt_ms: .inf\n"),
        ("trace.arrival_rate", "trace:\n  arrival_rate: .inf\n"),
        ("network.cloudlet_bandwidth_bytes_per_ms",
         "network:\n  cloudlet_bandwidth_bytes_per_ms: .inf\n"),
        ("catalog[0]", "catalog:\n  - {name: a, class: sensitive, base_service_ms: .inf,"
                       " mobile_ms: 1, cloud_ms: 1, data_bytes: 0}\n"),
    ])
    def test_exits_2_with_one_line_naming_the_key(self, tmp_path, key, yaml_text):
        path = tmp_path / "c.yaml"
        path.write_text(yaml_text)
        proc = run_cli_subprocess(["run", "--scheduler", "daa", "--config", str(path),
                                   "--tasks", "5", "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {key}:")
        assert "finite" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", ["inf", "nan", "0"])
    def test_compare_rejects_unusable_lambdas(self, tmp_path, small_config, capsys, rate):
        code = main(["compare", "--config", str(small_config), "--lambda", f"1,{rate}",
                     "--seeds", "1..1", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace.arrival_rate:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rate, message", [
        (math.inf, "must be finite"), (math.nan, "must be finite"), (0.0, "must be > 0")])
    def test_run_comparison_checks_every_lambda_as_the_config_does(self, rate, message):
        # the bad rate comes second: it is rejected before any cell runs
        with pytest.raises(ConfigError) as caught:
            run_comparison(EdgeCloudConfig(task_count=20), ["daemon-only"], [1.0, rate], [1], 7)
        assert str(caught.value) == f"trace.arrival_rate: {message}"


class TestWithoutAConfig:
    def test_the_defaults_are_the_reference_setup(self, tmp_path, capsys):
        main(["generate", "--trace", str(tmp_path / "t.csv"), "--seed", "1"])
        assert "200 tasks" in capsys.readouterr().out

    def test_flag_overrides_still_apply(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["generate", "--tasks", "12", "--lambda", "4", "--trace", str(out), "--seed", "1"])
        assert "12 tasks" in capsys.readouterr().out
        want = generate_trace(EdgeCloudConfig(task_count=12, arrival_rate=4.0), 1)
        assert load_trace(out) == want


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector while a command runs.

    That is safe only while a command's work leaves no reference cycles
    behind, which the first test pins step by step.
    """

    @pytest.fixture()
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    def test_a_command_leaves_no_cyclic_garbage(self, tmp_path, collector_off):
        from petrel.engine import simulate
        from petrel.metrics import summarize
        from petrel.schedulers import SCHEDULER_NAMES

        # lambda 4 makes daa delay tasks; the default probe latency takes the stale path
        config = EdgeCloudConfig(task_count=300, arrival_rate=4.0)
        trace = generate_trace(config, 3)
        assert gc.collect() == 0
        save_trace(trace, tmp_path / "trace.csv")
        assert gc.collect() == 0
        trace = load_trace(tmp_path / "trace.csv")
        assert gc.collect() == 0
        for name in SCHEDULER_NAMES:
            result = simulate(config, trace, name, 3)
            assert gc.collect() == 0, name
            summarize(result.records, result.topology)
            assert gc.collect() == 0, name
            write_records_csv(result.records, tmp_path / f"{name}.csv")
            assert gc.collect() == 0, name
        run_comparison(config.override(task_count=40), SCHEDULER_NAMES, [1.0, 2.0], [1, 2], 7)
        assert gc.collect() == 0

    def test_a_command_runs_with_the_collector_paused(self, tmp_path, monkeypatch):
        seen = []
        real = petrel.cli.generate_trace
        monkeypatch.setattr(petrel.cli, "generate_trace",
                            lambda *args: seen.append(gc.isenabled()) or real(*args))
        was = gc.isenabled()
        gc.enable()
        try:
            assert main(["generate", "--trace", str(tmp_path / "t.csv")]) == 0
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, expected", [
        (["generate", "--trace", "{tmp}/t.csv"], 0),
        (["run", "--trace", "{tmp}/absent.csv", "--scheduler", "daa", "--out", "{tmp}/out"], 1),
        (["generate", "--config", "{tmp}/bad.yaml", "--trace", "{tmp}/t.csv"], 2),
    ])
    def test_main_restores_the_collector_state(self, tmp_path, enabled, argv, expected):
        (tmp_path / "bad.yaml").write_text("cloudlets:\n  count: -3\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main([arg.format(tmp=tmp_path) for arg in argv]) == expected
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
