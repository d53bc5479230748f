"""Config defaults, YAML round-trips, and topology materialization."""

import hashlib

import numpy as np
import pytest
import yaml

from petrel.config import (
    ConfigError,
    EdgeCloudConfig,
    build_topology,
    from_mapping,
    load_config,
    save_config,
    to_mapping,
)
from petrel.model import TaskClass
from petrel.seeding import new_rng
from petrel.workload import Benchmark, default_catalog, generate_trace


class TestDefaults:
    def test_reference_setup(self):
        config = EdgeCloudConfig()
        assert config.cloudlet_count == 10
        assert config.vm_count_range == (1, 10)
        assert config.task_count == 200
        assert config.arrival_rate == 1.0
        assert config.seed == 1234
        assert len(config.catalog) == 5

    def test_nothing_given_means_defaults(self):
        assert from_mapping(None) == EdgeCloudConfig()
        assert from_mapping({}) == EdgeCloudConfig()

    def test_empty_yaml_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == EdgeCloudConfig()

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("trace:\n  task_count: 17\n")
        config = load_config(path)
        assert config.task_count == 17
        assert config.cloudlet_count == 10


class TestDelayQuantum:
    def test_explicit_value_wins(self):
        config = EdgeCloudConfig(delay_quantum_ms=750.0)
        assert config.resolve_delay_quantum() == 750.0

    def test_default_is_a_slice_of_the_tolerant_mean(self):
        config = EdgeCloudConfig()
        tolerant = [b for b in config.catalog if b.task_class is TaskClass.LATENCY_TOLERANT]
        mean = sum(b.base_service_ms for b in tolerant) / len(tolerant)
        assert config.resolve_delay_quantum() == mean / 40.0

    def test_falls_back_to_all_benchmarks(self):
        catalog = (
            Benchmark("a", TaskClass.LATENCY_SENSITIVE, 1000.0, 5000.0, 1000.0, 0.0),
            Benchmark("b", TaskClass.LATENCY_SENSITIVE, 3000.0, 9000.0, 3000.0, 0.0),
        )
        config = EdgeCloudConfig(catalog=catalog)
        assert config.resolve_delay_quantum() == 2000.0 / 40.0

    def test_an_explicit_value_lets_an_overflowing_catalog_load(self):
        # without the key, this catalog's default quantum overflows (see single_fault_cases)
        huge = {**ENTRY, "class": "tolerant", "base_service_ms": 1.0e308, "bound_factor": 1.5}
        config = from_mapping({"catalog": [huge, {**huge, "name": "y"}],
                               "scheduler": {"delay_quantum_ms": 250.0}})
        assert [b.base_service_ms for b in config.catalog] == [1.0e308, 1.0e308]
        assert config.resolve_delay_quantum() == 250.0


class TestValidation:
    def test_errors_carry_key_paths(self):
        cases = [
            (dict(cloudlet_count=0), "cloudlets.count"),
            (dict(vm_count_range=(0, 5)), "cloudlets.vm_count_range"),
            (dict(vm_count_range=(7, 2)), "cloudlets.vm_count_range"),
            (dict(speed_factor_range=(0.0, 1.0)), "cloudlets.speed_factor_range"),
            (dict(daemon_rtt_ms=-1.0), "network.daemon_rtt_ms"),
            (dict(remote_rtt_range_ms=(9.0, 3.0)), "network.remote_rtt_range_ms"),
            (dict(cloudlet_bandwidth_bytes_per_ms=0.0), "network.cloudlet_bandwidth_bytes_per_ms"),
            (dict(task_count=-5), "trace.task_count"),
            (dict(arrival_rate=0.0), "trace.arrival_rate"),
            (dict(delay_quantum_ms=0.0), "scheduler.delay_quantum_ms"),
            (dict(probe_latency_ms=-1.0), "scheduler.probe_latency_ms"),
        ]
        for overrides, key in cases:
            with pytest.raises(ConfigError, match=key):
                EdgeCloudConfig(**overrides)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("overrides, key", [
        (lambda v: dict(speed_factor_range=(1.0, v)), "cloudlets.speed_factor_range"),
        (lambda v: dict(cloudlet_count=2, speed_factors=(1.0, v)), "cloudlets.speed_factors"),
        (lambda v: dict(daemon_rtt_ms=v), "network.daemon_rtt_ms"),
        (lambda v: dict(remote_rtt_range_ms=(50.0, v)), "network.remote_rtt_range_ms"),
        (lambda v: dict(cloud_rtt_ms=v), "network.cloud_rtt_ms"),
        (lambda v: dict(cloudlet_bandwidth_bytes_per_ms=v),
         "network.cloudlet_bandwidth_bytes_per_ms"),
        (lambda v: dict(cloud_bandwidth_bytes_per_ms=v), "network.cloud_bandwidth_bytes_per_ms"),
        (lambda v: dict(arrival_rate=v), "trace.arrival_rate"),
        (lambda v: dict(delay_quantum_ms=v), "scheduler.delay_quantum_ms"),
        (lambda v: dict(probe_latency_ms=v), "scheduler.probe_latency_ms"),
    ])
    def test_non_finite_floats_name_their_key(self, overrides, key, bad):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite$"):
            EdgeCloudConfig(**overrides(bad))

    @pytest.mark.parametrize("rate", [1e-310, 5e-324])
    def test_mean_arrival_gap_must_be_finite(self, rate):
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(arrival_rate=rate)
        assert str(caught.value) == ("trace.arrival_rate: the mean arrival gap,"
                                     " 1000 ms / arrival_rate, must be finite")
        assert EdgeCloudConfig(arrival_rate=1e-305).arrival_rate == 1e-305

    def test_explicit_vm_counts_must_match_the_count(self):
        with pytest.raises(ConfigError, match="cloudlets.vm_counts"):
            EdgeCloudConfig(cloudlet_count=3, vm_counts=(1, 2))

    def test_catalog_names_must_be_unique(self):
        bench = Benchmark("dup", TaskClass.LATENCY_SENSITIVE, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigError, match="catalog"):
            EdgeCloudConfig(catalog=(bench, bench))

    @pytest.mark.parametrize("overrides, message", [
        (dict(cloudlet_count=0), "cloudlets.count: must be >= 1 and <= 2**30"),
        (dict(vm_count_range=(0, 5)), "cloudlets.vm_count_range: needs 1 <= low <= high"),
        (dict(vm_count_range=(3, 2)), "cloudlets.vm_count_range: needs 1 <= low <= high"),
        (dict(speed_factor_range=(0.0, 1.0)),
         "cloudlets.speed_factor_range: needs 0 < low <= high"),
        (dict(speed_factor_range=(2.0, 1.0)),
         "cloudlets.speed_factor_range: needs 0 < low <= high"),
        (dict(vm_counts=(1,) * 9), "cloudlets.vm_counts: needs exactly 10 entries"),
        (dict(vm_counts=(1,) * 9 + (0,)), "cloudlets.vm_counts: every entry must be >= 1"),
        (dict(cloudlet_count=2, speed_factors=(1.0,)),
         "cloudlets.speed_factors: needs exactly 2 entries"),
        (dict(cloudlet_count=2, speed_factors=(1.0, 0.0)),
         "cloudlets.speed_factors: every entry must be > 0"),
        (dict(daemon_rtt_ms=-0.5), "network.daemon_rtt_ms: must be >= 0"),
        (dict(remote_rtt_range_ms=(-1.0, 0.0)),
         "network.remote_rtt_range_ms: needs 0 <= low <= high"),
        (dict(remote_rtt_range_ms=(2.0, 1.0)),
         "network.remote_rtt_range_ms: needs 0 <= low <= high"),
        (dict(cloud_rtt_ms=-0.5), "network.cloud_rtt_ms: must be >= 0"),
        (dict(cloudlet_bandwidth_bytes_per_ms=0.0),
         "network.cloudlet_bandwidth_bytes_per_ms: must be > 0"),
        (dict(cloud_bandwidth_bytes_per_ms=0.0),
         "network.cloud_bandwidth_bytes_per_ms: must be > 0"),
        (dict(task_count=-1), "trace.task_count: must be >= 0 and <= 2**60 - 1"),
        (dict(arrival_rate=0.0), "trace.arrival_rate: must be > 0"),
        (dict(delay_quantum_ms=0.0), "scheduler.delay_quantum_ms: must be > 0"),
        (dict(probe_latency_ms=-0.5), "scheduler.probe_latency_ms: must be >= 0"),
        # a count numpy cannot size an array by
        (dict(cloudlet_count=2**63), "cloudlets.count: must be >= 1 and <= 2**30"),
        (dict(task_count=10**30), "trace.task_count: must be >= 0 and <= 2**60 - 1"),
        # the first counts past numpy's array limit: 8 * n * (n - 1) and 8 * n bytes
        (dict(cloudlet_count=2**30 + 1), "cloudlets.count: must be >= 1 and <= 2**30"),
        (dict(task_count=2**60), "trace.task_count: must be >= 0 and <= 2**60 - 1"),
    ])
    def test_each_bound_names_its_rule(self, overrides, message):
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(**overrides)
        assert str(caught.value) == message

    def test_each_bound_admits_its_edge(self):
        config = EdgeCloudConfig(
            cloudlet_count=1, vm_count_range=(1, 1), vm_counts=(1,), speed_factors=(5e-324,),
            daemon_rtt_ms=0.0, remote_rtt_range_ms=(0.0, 0.0), cloud_rtt_ms=0.0, task_count=0,
            delay_quantum_ms=5e-324, probe_latency_ms=0.0)
        assert (config.vm_counts, config.task_count) == ((1,), 0)
        top = EdgeCloudConfig(cloudlet_count=2**30, task_count=2**60 - 1)
        assert (top.cloudlet_count, top.task_count) == (2**30, 2**60 - 1)

    @pytest.mark.parametrize("overrides, data", [
        (dict(cloudlet_count=2.5), {"cloudlets": {"count": 2.5}}),
        (dict(cloudlet_count=True), {"cloudlets": {"count": True}}),
        (dict(task_count=True), {"trace": {"task_count": True}}),
        (dict(task_count=3.5), {"trace": {"task_count": 3.5}}),
        (dict(seed=1.5), {"seed": 1.5}),
        (dict(vm_count_range=(1.5, 3)), {"cloudlets": {"vm_count_range": [1.5, 3]}}),
        (dict(vm_count_range=(1, False)), {"cloudlets": {"vm_count_range": [1, False]}}),
        (dict(vm_counts=(1,) * 9 + (1.5,)), {"cloudlets": {"vm_counts": [1] * 9 + [1.5]}}),
        (dict(cloud_rtt_ms=True), {"network": {"cloud_rtt_ms": True}}),
        (dict(arrival_rate=False), {"trace": {"arrival_rate": False}}),
        (dict(delay_quantum_ms=True), {"scheduler": {"delay_quantum_ms": True}}),
        (dict(arrival_rate=[1.0]), {"trace": {"arrival_rate": [1.0]}}),
        (dict(speed_factor_range=(1.0, True)), {"cloudlets": {"speed_factor_range": [1.0, True]}}),
        (dict(remote_rtt_range_ms=(True, 70.0)),
         {"network": {"remote_rtt_range_ms": [True, 70.0]}}),
        (dict(speed_factors=(1.0,) * 9 + (True,)),
         {"cloudlets": {"speed_factors": [1.0] * 9 + [True]}}),
        # an int past the float range is no float, directly as from a file
        (dict(arrival_rate=10**400), {"trace": {"arrival_rate": 10**400}}),
        (dict(speed_factors=(10**400,) * 10), {"cloudlets": {"speed_factors": [10**400] * 10}}),
        (dict(remote_rtt_range_ms=(1, 10**400)),
         {"network": {"remote_rtt_range_ms": [1, 10**400]}}),
        # nor one too long to print, past Python's default limit of 4,300 digits for str()
        (dict(arrival_rate=10**5000), {"trace": {"arrival_rate": 10**5000}}),
        (dict(cloud_rtt_ms=-10**5000), {"network": {"cloud_rtt_ms": -10**5000}}),
    ])
    def test_a_number_key_takes_no_other_type_as_a_file_would(self, overrides, data):
        with pytest.raises(ConfigError) as from_file:
            from_mapping(data)
        with pytest.raises(ConfigError) as direct:
            EdgeCloudConfig(**overrides)
        assert str(direct.value) == str(from_file.value)

    @pytest.mark.parametrize("overrides, message", [
        (dict(cloudlet_count=2.0), "cloudlets.count: expected int, got 2.0"),
        (dict(seed=7.0, cloudlet_count=0), "seed: expected int, got 7.0"),
        (dict(vm_counts=(1.0,) * 10), "cloudlets.vm_counts: expected int entries"),
        (dict(cloudlet_count=2, vm_counts=(1, np.float64(2.0))),
         "cloudlets.vm_counts: expected int entries"),
    ])
    def test_an_integral_float_is_not_an_int_key(self, overrides, message):
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(**overrides)
        assert str(caught.value) == message

    @pytest.mark.parametrize("overrides, message", [
        (dict(arrival_rate="1"), "trace.arrival_rate: expected float, got '1'"),
        (dict(speed_factors=("1",) * 10), "cloudlets.speed_factors: expected float entries"),
        (dict(remote_rtt_range_ms=(50.0, "70")),
         "network.remote_rtt_range_ms: expected float entries"),
    ])
    def test_a_float_key_takes_no_str(self, overrides, message):
        # unlike a file, whose quoted "1" reads as a float, a direct value is not parsed
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(**overrides)
        assert str(caught.value) == message

    def test_ints_and_numpy_floats_are_float_keys(self):
        config = EdgeCloudConfig(
            cloudlet_count=2, speed_factors=(1, np.float32(2.0)), arrival_rate=2,
            cloud_rtt_ms=np.float64(250.0), remote_rtt_range_ms=(50, 70))
        assert [c.speed_factor for c in build_topology(config, 7)] == [1, 2]
        assert len(generate_trace(config, 7)) == config.task_count
        config = EdgeCloudConfig(
            seed=np.int16(7), cloudlet_count=np.int32(3), vm_count_range=(np.int64(1), 2),
            vm_counts=(np.int64(1), np.uint8(2), 3), task_count=np.int64(20))
        assert [c.vm_count for c in build_topology(config, 7)] == [1, 2, 3]
        assert len(generate_trace(config, 7)) == 20
        assert from_mapping(yaml.safe_load(yaml.safe_dump(to_mapping(config)))) == config

    def test_numpy_floats_are_stored_plain_and_round_trip(self, tmp_path):
        config = EdgeCloudConfig(
            cloudlet_count=2, speed_factors=(np.float32(0.1), np.float64(2.0)),
            speed_factor_range=[np.float32(0.5), 1], cloud_rtt_ms=np.float64(3),
            remote_rtt_range_ms=(np.float32(1.5), np.float64(2)), arrival_rate=np.float32(0.3),
            delay_quantum_ms=np.float64(50))
        for name in ("speed_factors", "speed_factor_range", "remote_rtt_range_ms"):
            value = getattr(config, name)
            assert type(value) is tuple and {type(v) for v in value} == {float}, name
        for name in ("cloud_rtt_ms", "arrival_rate", "delay_quantum_ms"):
            assert type(getattr(config, name)) is float, name
        assert config.speed_factors[0] == float(np.float32(0.1))
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_a_catalog_list_is_stored_as_a_tuple(self):
        config = EdgeCloudConfig(catalog=default_catalog())
        assert type(config.catalog) is tuple
        assert config == EdgeCloudConfig() and hash(config) == hash(EdgeCloudConfig())

    @pytest.mark.parametrize("overrides, message", [
        (dict(task_count=None), "trace.task_count: expected int, got None"),
        (dict(cloudlet_count=None), "cloudlets.count: expected int, got None"),
        (dict(seed=None), "seed: expected int, got None"),
        (dict(arrival_rate=None), "trace.arrival_rate: expected float, got None"),
        (dict(probe_latency_ms=None), "scheduler.probe_latency_ms: expected float, got None"),
        (dict(vm_count_range=None), "cloudlets.vm_count_range: expected a [low, high] pair"),
        (dict(catalog=None), "catalog: expected a list of benchmarks"),
    ])
    def test_only_a_key_whose_default_is_none_takes_none(self, overrides, message):
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(**overrides)
        assert str(caught.value) == message

    def test_a_catalog_takes_only_benchmarks(self):
        with pytest.raises(ConfigError) as caught:
            EdgeCloudConfig(catalog=(*default_catalog(), "face"))
        assert str(caught.value) == "catalog: expected Benchmark entries"

    @pytest.mark.parametrize("overrides, data", [
        (dict(vm_count_range=(1, 2, 3)), {"cloudlets": {"vm_count_range": [1, 2, 3]}}),
        (dict(vm_count_range=(1,)), {"cloudlets": {"vm_count_range": [1]}}),
        (dict(vm_count_range=5), {"cloudlets": {"vm_count_range": 5}}),
        (dict(remote_rtt_range_ms="ab"), {"network": {"remote_rtt_range_ms": "ab"}}),
        (dict(speed_factors=5.0), {"cloudlets": {"speed_factors": 5.0}}),
        (dict(vm_counts={1: 2}), {"cloudlets": {"vm_counts": {1: 2}}}),
        (dict(catalog=3), {"catalog": 3}),
    ])
    def test_a_pair_or_list_key_takes_no_other_shape_as_a_file_would(self, overrides, data):
        with pytest.raises(ConfigError) as from_file:
            from_mapping(data)
        with pytest.raises(ConfigError) as direct:
            EdgeCloudConfig(**overrides)
        assert str(direct.value) == str(from_file.value)
        assert str(direct.value).endswith(("expected a [low, high] pair", "expected a list",
                                           "expected a list of benchmarks"))

    def test_override_revalidates(self):
        with pytest.raises(ConfigError):
            EdgeCloudConfig().override(cloudlet_count=0)


class TestMappingErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="cloudlet_count: unknown key"):
            from_mapping({"cloudlet_count": 3})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="network.jitter_ms: unknown key"):
            from_mapping({"network": {"jitter_ms": 5}})

    def test_wrong_scalar_type_names_the_key(self):
        with pytest.raises(ConfigError, match="cloudlets.count"):
            from_mapping({"cloudlets": {"count": "ten"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="trace.task_count"):
            from_mapping({"trace": {"task_count": True}})

    def test_fractional_float_is_not_an_int(self):
        with pytest.raises(ConfigError, match="trace.task_count"):
            from_mapping({"trace": {"task_count": 3.5}})

    def test_integral_float_is_accepted_as_int(self):
        assert from_mapping({"trace": {"task_count": 25.0}}).task_count == 25

    def test_pair_needs_exactly_two_entries(self):
        with pytest.raises(ConfigError, match="vm_count_range"):
            from_mapping({"cloudlets": {"vm_count_range": [1, 2, 3]}})

    def test_catalog_entry_errors_carry_their_index(self):
        entry = {"name": "x", "class": "sensitive", "base_service_ms": 1.0,
                 "mobile_ms": 1.0, "cloud_ms": 1.0, "data_bytes": 0.0, "nope": 1}
        with pytest.raises(ConfigError, match=r"catalog\[0\].nope"):
            from_mapping({"catalog": [entry]})

    @pytest.mark.parametrize("name, message", [
        (5, "catalog[1].name: expected str, got 5"),
        ("a,b", "catalog[1]: benchmark name: expected no ',', '\"', CR or LF, got 'a,b'"),
        ('a"b', "catalog[1]: benchmark name: expected no ',', '\"', CR or LF, got 'a\"b'"),
        ("a\rb", "catalog[1]: benchmark name: expected no ',', '\"', CR or LF, got 'a\\rb'"),
        ("a\nb", "catalog[1]: benchmark name: expected no ',', '\"', CR or LF, got 'a\\nb'")],
        ids=["int", "comma", "quote", "cr", "lf"])
    def test_a_catalog_name_follows_the_name_rule(self, name, message):
        entry = {"name": name, "class": "sensitive", "base_service_ms": 1.0,
                 "mobile_ms": 1.0, "cloud_ms": 1.0, "data_bytes": 0.0}
        with pytest.raises(ConfigError) as caught:
            from_mapping({"catalog": [entry | {"name": "x"}, entry]})
        assert str(caught.value) == message

    def test_catalog_entry_missing_key(self):
        with pytest.raises(ConfigError, match=r"catalog\[0\]"):
            from_mapping({"catalog": [{"name": "x"}]})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="network"):
            from_mapping({"network": [1, 2]})


INT_KEYS = ("seed", "cloudlets.count", "trace.task_count")
FLOAT_KEYS = (
    "network.daemon_rtt_ms", "network.cloud_rtt_ms", "network.cloudlet_bandwidth_bytes_per_ms",
    "network.cloud_bandwidth_bytes_per_ms", "trace.arrival_rate",
    "scheduler.delay_quantum_ms", "scheduler.probe_latency_ms",
)
PAIR_KEYS = {"cloudlets.vm_count_range": "int", "cloudlets.speed_factor_range": "float",
             "network.remote_rtt_range_ms": "float"}
LIST_KEYS = {"cloudlets.vm_counts": "int", "cloudlets.speed_factors": "float"}
ENTRY = {"name": "x", "class": "sensitive", "base_service_ms": 1.0, "mobile_ms": 1.0,
         "cloud_ms": 1.0, "data_bytes": 0.0}
INF = float("inf")
LONG = 10**5000  # past Python's default limit of 4,300 digits for str()
LONG_SHOWN = "an int of 16610 bits"
QUANTUM_MESSAGE = ("catalog: the default delay quantum, the mean base_service_ms / 40, must be"
                   " finite and > 0; set scheduler.delay_quantum_ms")


def nested(path, value):
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


def with_entry(**changes):
    entry = {**ENTRY, **changes}
    return {"catalog": [{k: v for k, v in entry.items() if v is not ...}]}


def single_fault_cases():
    for path in INT_KEYS:
        yield nested(path, "ten"), f"{path}: expected int, got 'ten'"
        yield nested(path, [1, 2]), f"{path}: expected int, got [1, 2]"
        yield nested(path, True), f"{path}: expected int, got True"
        yield nested(path, 2.5), f"{path}: expected int, got 2.5"
        yield nested(path, INF), f"{path}: expected int, got inf"
    for path in FLOAT_KEYS:
        yield nested(path, "ten"), f"{path}: expected float, got 'ten'"
        yield nested(path, [1, 2]), f"{path}: expected float, got [1, 2]"
        yield nested(path, INF), f"{path}: must be finite"
    for path, kind in PAIR_KEYS.items():
        yield nested(path, ["a", "b"]), f"{path}: expected {kind} entries"
        yield nested(path, [1, 2, 3]), f"{path}: expected a [low, high] pair"
        yield nested(path, 3), f"{path}: expected a [low, high] pair"
        if kind == "float":
            yield nested(path, [1.0, INF]), f"{path}: must be finite"
    for path, kind in LIST_KEYS.items():
        yield nested(path, ["a", "b"]), f"{path}: expected {kind} entries"
        yield nested(path, 3), f"{path}: expected a list"
    yield (nested("cloudlets.speed_factors", [1.0] * 9 + [INF]),
           "cloudlets.speed_factors: must be finite")
    yield {"zzz": 1}, "zzz: unknown key"
    for section in ("cloudlets", "network", "trace", "scheduler"):
        yield {section: {"zzz": 1}}, f"{section}.zzz: unknown key"
        yield {section: [1]}, f"{section}: expected a mapping, got list"
        yield {section: None}, f"{section}: expected a mapping, got NoneType"
    yield with_entry(zzz=1), "catalog[0].zzz: unknown key"
    for key in ("base_service_ms", "mobile_ms", "cloud_ms", "data_bytes", "weight", "bound_factor"):
        yield with_entry(**{key: "abc"}), f"catalog[0].{key}: expected float, got 'abc'"
        yield with_entry(**{key: INF}), f"catalog[0]: benchmark x: {key} must be finite"
    for key in ENTRY:
        yield with_entry(**{key: ...}), f"catalog[0]: missing key {key!r}"
    yield (with_entry(**{"class": "x"}),
           "catalog[0].class: unknown task class 'x' (expected 'sensitive' or 'tolerant')")
    yield with_entry(name=5), "catalog[0].name: expected str, got 5"
    yield {"catalog": 3}, "catalog: expected a list of benchmarks"
    yield {"catalog": [[1]]}, "catalog[0]: expected a mapping, got list"
    yield {"catalog": []}, "catalog: must have at least one benchmark"
    yield {"catalog": [ENTRY, ENTRY]}, "catalog: benchmark names must be unique"
    yield [1], "<root>: expected a mapping, got list"
    yield {"cloudlets.count": 3}, "cloudlets.count: unknown key"
    yield {"trace": {"time_unit_ms": 1000.0}}, "trace.time_unit_ms: unknown key"  # removed
    # an int too long to print is shown by its size
    for path, value in (("trace.arrival_rate", LONG), ("network.cloud_rtt_ms", -LONG)):
        yield nested(path, value), f"{path}: expected float, got {LONG_SHOWN}"
    yield with_entry(name=LONG), f"catalog[0].name: expected str, got {LONG_SHOWN}"
    yield with_entry(weight=-LONG), f"catalog[0].weight: expected float, got {LONG_SHOWN}"
    for key in ("base_service_ms", "mobile_ms", "cloud_ms", "weight"):
        yield with_entry(**{key: 0.0}), f"catalog[0]: benchmark x: {key} must be > 0"
    yield with_entry(data_bytes=-1.0), "catalog[0]: benchmark x: data_bytes must be >= 0"
    yield (with_entry(**{"class": "tolerant"}),
           "catalog[0]: benchmark x: tolerant benchmarks need bound_factor > 1")
    yield with_entry(bound_factor=2.0), "catalog[0]: benchmark x: bound_factor is tolerant-only"
    yield (with_entry(**{"class": "tolerant", "base_service_ms": 1.0e300, "bound_factor": 1.0e10}),
           "catalog[0]: benchmark x: bound_factor * base_service_ms must be finite")
    # the default delay quantum overflows (two finite tolerant entries) or underflows to 0
    huge = {**ENTRY, "class": "tolerant", "base_service_ms": 1.0e308, "bound_factor": 1.5}
    yield {"catalog": [huge, {**huge, "name": "y"}]}, QUANTUM_MESSAGE
    yield with_entry(base_service_ms=5e-324), QUANTUM_MESSAGE


class TestLayoutPins:
    """The file layout and its error messages, pinned as the reader and writer produce them."""

    @pytest.mark.parametrize("data, message", list(single_fault_cases()))
    def test_single_fault_message(self, data, message):
        with pytest.raises(ConfigError) as caught:
            from_mapping(data)
        assert str(caught.value) == message

    @pytest.mark.parametrize("config, digest", [
        (EdgeCloudConfig(), "14765e8888166aca0c1e4d0c828ebfe35bbdf64399afc27d2dfd6670b2cf5838"),
        (EdgeCloudConfig(
            cloudlet_count=4, vm_counts=(2, 1, 3, 2), speed_factors=(1.0, 2.0, 0.5, 1.5),
            delay_quantum_ms=12.0,
            catalog=(Benchmark("only", TaskClass.LATENCY_TOLERANT, 500.0, 2500.0, 400.0,
                               12_000.0, bound_factor=3.0, weight=2.0),)),
         "23fe98b04cbd6f504653ad44629dbf53b274ea1d1d66a3eb116a442fe65d3462"),
    ])
    def test_save_config_bytes(self, tmp_path, config, digest):
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_quoted_numbers_are_accepted(self):
        config = from_mapping({"trace": {"task_count": "10"},
                               "cloudlets": {"vm_count_range": ["1", "10"]}})
        assert (config.task_count, config.vm_count_range) == (10, (1, 10))
        assert from_mapping(with_entry(name="5")).catalog[0].name == "5"


class TestEntryTypeRules:
    """List, pair and catalog entries follow the rules scalar keys do: no bool, no
    fractional int, a str only from a str."""

    @pytest.mark.parametrize("data, message", [
        pytest.param({"cloudlets": {"vm_count_range": [1.5, 10]}},
                     "cloudlets.vm_count_range: expected int entries", id="fractional-pair"),
        pytest.param({"cloudlets": {"vm_count_range": [True, 10]}},
                     "cloudlets.vm_count_range: expected int entries", id="bool-pair"),
        pytest.param({"cloudlets": {"vm_count_range": [1, INF]}},
                     "cloudlets.vm_count_range: expected int entries", id="inf-int-pair"),
        pytest.param({"cloudlets": {"count": 3, "vm_counts": [1.9, 2, 3]}},
                     "cloudlets.vm_counts: expected int entries", id="fractional-list"),
        pytest.param({"cloudlets": {"count": 2, "speed_factors": [True, 2.0]}},
                     "cloudlets.speed_factors: expected float entries", id="bool-list"),
        pytest.param(with_entry(base_service_ms=True),
                     "catalog[0].base_service_ms: expected float, got True",
                     id="bool-catalog-entry"),
        pytest.param(with_entry(name=None), "catalog[0].name: expected str, got None",
                     id="null-catalog-name"),
        pytest.param(with_entry(name=[1, 2]), "catalog[0].name: expected str, got [1, 2]",
                     id="list-catalog-name"),
        pytest.param(with_entry(name=True), "catalog[0].name: expected str, got True",
                     id="bool-catalog-name"),
        pytest.param({"trace": {"arrival_rate": 10**400}},
                     f"trace.arrival_rate: expected float, got {10**400}", id="huge-int-float"),
    ])
    def test_entry_is_rejected(self, data, message):
        with pytest.raises(ConfigError) as caught:
            from_mapping(data)
        assert str(caught.value) == message


class TestFiles:
    def test_round_trip_identity(self, tmp_path):
        config = EdgeCloudConfig(
            cloudlet_count=4,
            vm_counts=(2, 1, 3, 2),
            speed_factor_range=(0.5, 2.0),
            remote_rtt_range_ms=(40.0, 80.0),
            task_count=33,
            arrival_rate=2.5,
            delay_quantum_ms=123.0,
            probe_latency_ms=0.0,
            seed=77,
            catalog=(
                Benchmark("only", TaskClass.LATENCY_TOLERANT, 500.0, 2500.0, 400.0,
                          12_000.0, bound_factor=3.0, weight=2.0),
            ),
        )
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_mapping_round_trip(self):
        config = EdgeCloudConfig(speed_factors=tuple(float(i + 1) for i in range(10)))
        assert from_mapping(to_mapping(config)) == config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("trace: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        pytest.param("trace: {task_count: " + "1" * 4400 + "}\n", "Exceeds the limit (4300"
                     " digits) for integer string conversion: value has 4400 digits",
                     id="long-int"),
        pytest.param("seed: 2001-13-01\n", "month must be in 1..12", id="impossible-date"),
    ])
    def test_a_value_python_cannot_build_is_one_line(self, tmp_path, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value).startswith(f"{path}: cannot read a value: {message}")
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("text, message", [
        pytest.param("a: [\n", "line 2: invalid YAML: expected the node content, but found"
                     " '<stream end>'", id="marked"),
        pytest.param("a: \x00\n", "invalid YAML: unacceptable character #x0000: special"
                     " characters are not allowed", id="unmarked"),
    ])
    def test_invalid_yaml_is_one_line(self, tmp_path, text, message):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, line, key", [
        pytest.param("trace: {task_count: 5, task_count: 7}\n", 1, "task_count", id="flow"),
        pytest.param("trace: {task_count: 5}\nseed: 3\ntrace: {task_count: 7}\n", 3, "trace",
                     id="section"),
        pytest.param("trace:\n  task_count: 5\n  'task_count': 7\n", 3, "task_count",
                     id="quoted"),
        pytest.param("catalog:\n  - name: a\n    class: sensitive\n    base_service_ms: 1\n"
                     "    mobile_ms: 1\n    cloud_ms: 1\n    base_service_ms: 2\n"
                     "    data_bytes: 0\n", 7, "base_service_ms", id="catalog-entry"),
    ])
    def test_a_repeated_key_names_its_line(self, tmp_path, text, line, key):
        path = tmp_path / "repeated.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: line {line}: repeated key {key!r}"

    def test_keys_beside_a_merge_key_override_it(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("catalog:\n  - &face {name: face, class: sensitive, base_service_ms: 9,"
                        " mobile_ms: 5, cloud_ms: 1, data_bytes: 0}\n"
                        "  - <<: *face\n    name: copy\n    mobile_ms: 6\n")
        face, copy = load_config(path).catalog
        assert (copy.name, copy.mobile_ms) == ("copy", 6.0)
        assert (copy.base_service_ms, copy.cloud_ms) == (face.base_service_ms, face.cloud_ms)

    def test_top_level_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="^<root>: expected a mapping, got list$"):
            load_config(path)


class TestBuildTopology:
    def test_same_seed_same_edge_cloud(self):
        config = EdgeCloudConfig(speed_factor_range=(0.5, 2.0))
        assert build_topology(config, seed=5) == build_topology(config, seed=5)
        assert build_topology(config, seed=5) != build_topology(config, seed=6)

    def test_shape_and_ranges(self):
        config = EdgeCloudConfig(
            cloudlet_count=6,
            vm_count_range=(2, 4),
            speed_factor_range=(0.5, 2.0),
            remote_rtt_range_ms=(50.0, 70.0),
        )
        topo = build_topology(config, seed=3)
        assert topo.ids == tuple(range(6))
        for node in topo:
            assert 2 <= node.vm_count <= 4
            assert 0.5 <= node.speed_factor <= 2.0
            assert node.net.daemon_rtt == config.daemon_rtt_ms
            assert node.net.cloud_rtt == config.cloud_rtt_ms
            for other in topo.ids:
                if other == node.id:
                    continue
                assert 50.0 <= node.net.rtt_to(other) <= 70.0

    def test_explicit_vm_counts_leave_other_draws_alone(self):
        base = EdgeCloudConfig(cloudlet_count=4, speed_factor_range=(0.5, 2.0))
        pinned = base.override(vm_counts=(1, 1, 1, 1))
        drawn = build_topology(base, seed=9)
        forced = build_topology(pinned, seed=9)
        assert [c.vm_count for c in forced] == [1, 1, 1, 1]
        assert [c.speed_factor for c in forced] == [c.speed_factor for c in drawn]
        for a, b in zip(drawn, forced):
            assert a.net == b.net

    def test_pair_rtts_are_directional_draws(self):
        config = EdgeCloudConfig(cloudlet_count=3, remote_rtt_range_ms=(50.0, 70.0))
        topo = build_topology(config, seed=21)
        node0, node1 = topo.get(0), topo.get(1)
        assert node0.net.rtt_to(1) != node1.net.rtt_to(0)

    @pytest.mark.parametrize("n", [1, 2, 10, 37])
    def test_remote_rtts_are_the_scalar_draws_in_row_major_order(self, n):
        # one array draw stands in for n * (n - 1) scalar draws on a twin generator
        config = EdgeCloudConfig(cloudlet_count=n, remote_rtt_range_ms=(50.0, 70.0))
        for seed in range(3):
            twin = new_rng(seed, "topology")
            lo, hi = config.vm_count_range
            twin.integers(lo, hi + 1, size=n)
            twin.uniform(*config.speed_factor_range, size=n)
            want = [{j: float(twin.uniform(50.0, 70.0)) for j in range(n) if j != i}
                    for i in range(n)]
            topo = build_topology(config, seed=seed)
            assert [list(node.net.remote_rtt.items()) for node in topo] == [
                list(row.items()) for row in want]
