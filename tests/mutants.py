"""Mutant gate: every listed mutant of ``src/`` must fail the tests named for it.

    python tests/mutants.py            # run the gate
    python tests/mutants.py --list     # name each mutant and its tests

The gate copies the repository to a temporary directory and checks that
the named tests pass there unmutated.  It then applies each mutant alone
(an exact snippet that occurs once in its file, replaced) and runs that
mutant's tests.  A mutant is killed when every id named for it (a file,
a class or a test) has a failing test; it survives when one has none,
and it is broken when pytest cannot even run them (a syntax or
collection error), which proves nothing.  The gate exits 1 if any
mutant survives or is broken, else 0.  It needs only the standard
library and pytest.  Hypothesis runs with a fixed seed, so a kill
repeats, and without shrinking, since a failure is all the gate needs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, each of which must have a failing test


ENGINE = "src/petrel/engine.py"
SCHEDULERS = "src/petrel/schedulers.py"
SEEDING = "src/petrel/seeding.py"
MODEL = "src/petrel/model.py"
CONFIG = "src/petrel/config.py"
WORKLOAD = "src/petrel/workload.py"
CLI = "src/petrel/cli.py"

E = "tests/test_engine.py::"
S = "tests/test_schedulers.py::"
U = "tests/test_seeding.py::"
W = "tests/test_workload.py::"
C = "tests/test_cli.py::"
ERROR_PATH = C + "TestEveryErrorPath::test_one_line_and_the_documented_exit_code"
REPLAY = E + "TestReplayAgreement::test_engine_matches_the_handwritten_replay"
ANY_ORDER = E + "TestProbeMatchesTheModel::test_least_completion_is_the_first_least_probe_in_any_order"
LIVE_AT_ZERO = E + "TestProbeStaleness::test_zero_latency_reads_the_live_heap_heads"
MIN_ACROSS_VMS = E + "TestProbeStaleness::test_stale_reads_take_the_min_across_vms"
LOG_ENTRY = (E + "TestStaleReadsMatchFullHistory::"
                 "test_each_log_entry_is_its_cloudlets_live_earliest_ready_time")
PAIR = S + "TestSamplerOnScriptedWords::test_pair_matches_the_reference"
EDIT = W + "TestOnePassRead::test_each_edit_loads_as_the_row_loop_loads_it"
ONE_PASS = W + "TestOnePassRead::test_the_one_pass_read_matches_the_row_loop"
SPLIT = (W + "TestOnePassRead::"
             "test_the_row_loop_splits_lines_as_a_file_read_without_newline_translation")
SPLIT_ANY = (W + "TestOnePassRead::"
                 "test_the_row_loop_splits_any_text_as_a_file_read_without_newline_translation")
ON_DEMAND = C + "TestImportsOnDemand::"
IDLE_FLAG = E + "TestProbeMatchesTheModel::test_has_idle_vm_is_the_probes_flag_fresh_and_stale"
COMPARATOR = S + "TestDecisionsMatchThePairComparator"
BOUNDS = "tests/test_config.py::TestValidation::test_each_bound_names_its_rule"
NUMBER_KEYS = ("tests/test_config.py::TestValidation::"
               "test_a_number_key_takes_no_other_type_as_a_file_would")
INT_KEYS = (NUMBER_KEYS,
            "tests/test_config.py::TestValidation::test_an_integral_float_is_not_an_int_key")
FLOAT_KEYS = (NUMBER_KEYS, "tests/test_config.py::TestValidation::test_a_float_key_takes_no_str")

MUTANTS = (
    Mutant("least_completion seeds best from inf", ENGINE,
           "if best_id is None or done < best:",
           "if done < (inf if best_id is None else best):",
           (E + "TestProbeMatchesTheModel::test_an_all_infinite_scan_returns_its_first_id",)),
    Mutant("least_completion keeps the last of equal completions", ENGINE,
           "if best_id is None or done < best:",
           "if best_id is None or done <= best:",
           (ANY_ORDER, LIVE_AT_ZERO)),
    Mutant("least_completion reads the daemon from stale state", ENGINE,
           "            if cloudlet_id == daemon_id:\n",
           "            if cloudlet_id is None:\n",
           (ANY_ORDER, REPLAY)),
    Mutant("the early exit's floor is the peers' greatest cost", MODEL,
           "tuple(map(min, zip(*peers)))",
           "tuple(map(max, zip(*peers)))",
           (E + "TestProbeMatchesTheModel::test_an_idle_daemon_loses_to_a_faster_idle_peer",)),
    Mutant("the early exit skips the idle check", ENGINE,
           "if cloudlet_ids[0] == daemon_id and heaps[daemon_id][0] <= now:",
           "if cloudlet_ids[0] == daemon_id:",
           (E + "TestProbeMatchesTheModel::"
                "test_a_busy_daemon_whose_queue_makes_a_peer_win_yields_the_peer",)),
    Mutant("a peer without a redirect RTT is left out of the floor", MODEL,
           "                peers = [(-inf, -inf)]\n",
           "                peers = [self[c] for c in self._by_id if c != daemon_id\n"
           "                         and c in self._daemon.net.remote_rtt]\n",
           (E + "TestProbeMatchesTheModel::"
                "test_a_missing_redirect_rtt_raises_at_every_use_of_that_pair",)),
    Mutant("has_idle_vm reads the live heap for a peer", ENGINE,
           "            ready = self._stale_ready[cloudlet_id]\n        return ready <= self.now\n",
           "            ready = self._heaps[cloudlet_id][0]\n        return ready <= self.now\n",
           (IDLE_FLAG, REPLAY)),
    Mutant("has_idle_vm takes a VM ready at now as busy", ENGINE,
           "return ready <= self.now",
           "return ready < self.now",
           (IDLE_FLAG, REPLAY)),
    Mutant("a wake-up reuses the last arrival's cost row", ENGINE,
           "now, _, index, delays, costs = heappop(wakeups)",
           "now, _, index, delays, _ = heappop(wakeups)",
           (E + "TestSimulationRuns::test_one_view_is_moved_through_the_run", REPLAY)),
    Mutant("the run's horizon ignores probe_latency", ENGINE,
           "horizon = now - latency if now > latency else 0.0",
           "horizon = now",
           (E + "TestProbeStaleness::"
                "test_a_run_folds_a_commit_that_lands_on_a_later_decisions_horizon", REPLAY)),
    Mutant("the run's horizon is not clamped at 0", ENGINE,
           "horizon = now - latency if now > latency else 0.0",
           "horizon = now - latency",
           (E + "TestProbeStaleness::test_a_commit_at_zero_is_visible_inside_the_first_latency",)),
    Mutant("the fold leaves out commits at the horizon", ENGINE,
           "while log and log[0][0] <= horizon:",
           "while log and log[0][0] < horizon:",
           (E + "TestProbeStaleness::test_stale_reads_see_older_state", LIVE_AT_ZERO)),
    Mutant("the run skips a commit due at its horizon", ENGINE,
           "if log and log[0][0] <= horizon:",
           "if log and log[0][0] < horizon:",
           (E + "TestProbeStaleness::"
                "test_a_run_folds_a_commit_that_lands_on_a_later_decisions_horizon",)),
    Mutant("tied wake-ups pop in trace order", ENGINE,
           "heappush(wakeups, (wake, sequence, index, delays + 1, costs))",
           "heappush(wakeups, (wake, index, index, delays + 1, costs))",
           (E + "TestReplayAgreement",)),
    Mutant("a delay may end at the deadline", ENGINE,
           "if not now < wake < deadline:",
           "if not now < wake <= deadline:",
           (E + "TestSimulationRuns::test_a_delay_ending_at_the_deadline_raises",)),
    Mutant("a delay may end at now", ENGINE,
           "if not now < wake < deadline:",
           "if not wake < deadline:",
           (E + "TestSimulationRuns::test_a_delay_below_a_float_step_raises_at_once",)),
    Mutant("a wake-up goes before an arrival at the same instant", ENGINE,
           "wakeups[0][0] < trace[arrived].arrival_time",
           "wakeups[0][0] <= trace[arrived].arrival_time",
           (E + "TestOracleOnRandomTopologies::"
                "test_an_arrival_is_decided_before_a_wakeup_at_the_same_instant",)),
    Mutant("a commit behind the last commit is accepted", ENGINE,
           "if now < self.last_commit:",
           "if False:",
           (E + "TestStaleReadsMatchFullHistory::test_a_commit_behind_a_folded_commit_raises",)),
    Mutant("the heap takes back the start, not the new ready time", ENGINE,
           "heapq.heapreplace(heap, start + exec_time)",
           "heapq.heapreplace(heap, start)",
           (E + "TestVmSchedule::test_commit_occupies_the_earliest_vm", REPLAY)),
    Mutant("the log records the committed VM's new ready time", ENGINE,
           "self.commit_log.append((now, cloudlet_id, heap[0]))",
           "self.commit_log.append((now, cloudlet_id, start + exec_time))",
           (MIN_ACROSS_VMS, LOG_ENTRY)),
    Mutant("the log records the earliest ready time from before the commit", ENGINE,
           "self.commit_log.append((now, cloudlet_id, heap[0]))",
           "self.commit_log.append((now, cloudlet_id, ready))",
           (MIN_ACROSS_VMS, LOG_ENTRY)),
    Mutant("the pair comes back in draw order", SCHEDULERS,
           "return (a, b) if a < b else (b, a)",
           "return (a, b)",
           (PAIR, COMPARATOR)),
    Mutant("the pair comes back higher id first", SCHEDULERS,
           "return (a, b) if a < b else (b, a)",
           "return (a, b) if a > b else (b, a)",
           (COMPARATOR, S + "test_decision_table")),
    Mutant("the shuffle's word is not drawn", SCHEDULERS,
           "        next_uint32()  # the shuffle's",
           "        pass  # the shuffle's",
           (PAIR, S + "TestSampledPairsMatchSampleTwo")),
    Mutant("no Lemire redraw", SCHEDULERS,
           "first = m >> 32 if m & 0xFFFFFFFF >= n - 1 else redraw(m, n - 1)",
           "first = m >> 32",
           (S + "TestSamplerOnScriptedWords::test_a_zero_word_is_redrawn",)),
    Mutant("daa's sensitive order puts the daemon last", SCHEDULERS,
           "view.least_completion((daemon_id, *pair))",
           "view.least_completion((*pair, daemon_id))",
           (S + "test_decision_table", COMPARATOR + "::test_daa")),
    Mutant("daa settles on the candidate", SCHEDULERS,
           "return _assign(daemon_id)  # waiting would overrun the bound",
           "return _assign(candidate)  # waiting would overrun the bound",
           (S + "test_decision_table", COMPARATOR + "::test_daa")),
    Mutant("daa projects the delayed daemon eagerly", SCHEDULERS,
           "        pair = self._sample_pair(view)\n",
           "        pair = self._sample_pair(view)\n"
           "        view.daemon_completion_if_delayed(self.delay_quantum)\n",
           (S + "test_projection_computed_lazily_only_on_the_busy_tolerant_branch",)),
    Mutant("greedy's order is left unsorted", SCHEDULERS,
           "return (daemon_id, *sorted(_peers(cloudlet_ids, daemon_id)))",
           "return (daemon_id, *_peers(cloudlet_ids, daemon_id))",
           (S + "TestBaselines::test_greedy_tie_between_others_takes_the_lower_id_not_the_first",)),
    Mutant("a 64-bit word gives its high half first", SEEDING,
           'yield raw(BATCH).astype("<u8", copy=False).view("<u4").tolist()',
           'yield raw(BATCH).astype(">u8", copy=False).view(">u4").tolist()',
           (U + "TestUint32s::test_every_bit_generator_matches_uint32_integers",)),
    Mutant("the buffered half is dropped", SEEDING,
           'yield [state["uinteger"]]',
           "yield []",
           (U + "TestUint32s::test_matches_uint32_integers_on_a_twin",)),
    Mutant("MT19937 words are split in halves", SEEDING,
           "yield raw(BATCH).tolist()",
           'yield raw(BATCH).astype("<u8", copy=False).view("<u4").tolist()',
           (U + "TestPolicyStream::test_every_bit_generator_draws_as_integers",)),
    Mutant("cost rows are keyed by benchmark name", MODEL,
           "row = self._costs.get((daemon_id, id(profile)))\n"
           "        if row is None:\n"
           "            row = self._costs[daemon_id, id(profile)]",
           "row = self._costs.get((daemon_id, profile.benchmark))\n"
           "        if row is None:\n"
           "            row = self._costs[daemon_id, profile.benchmark]",
           (E + "TestSharedCostRows", REPLAY)),
    Mutant("the cloud is priced over the first cloudlet's net", MODEL,
           "self.cloud = cloud_times(profile, self._daemon.net)",
           "self.cloud = cloud_times(profile, next(iter(by_id.values())).net)",
           (E + "TestSimulationRuns::test_the_cloud_is_priced_over_the_daemons_own_net",)),
    Mutant("remote RTTs are drawn column by column", CONFIG,
           "    remote = [{j: next(rtts) for j in range(n) if j != i} for i in range(n)]\n",
           "    remote = [{} for _ in range(n)]\n"
           "    for j in range(n):\n"
           "        for i in range(n):\n"
           "            if i != j:\n"
           "                remote[i][j] = next(rtts)\n",
           ("tests/test_goldens.py::test_run_outputs_match_goldens",)),
    Mutant("the loader drops its inline arrival isfinite test", WORKLOAD,
           "fault = (not isfinite(arrival) or task_id in seen_ids",
           "fault = (task_id in seen_ids",
           (W + "TestLoadErrors::test_non_finite_values_name_the_column",
            W + "TestLoadErrorMessages::test_message[cached profile, non-finite arrival]")),
    Mutant("the loader counts rows instead of lines", WORKLOAD,
           "row_num, line = line + 1, reader.line_num",
           "row_num = line = line + 1",
           (W + "TestLoadErrorMessages::test_a_fault_names_the_file_line_its_row_starts_on",
            ERROR_PATH + "[trace-row-after-quoted-line-breaks]")),
    Mutant("the writer reuses the cells of a task that queued", CLI,
           "if start_time == assign_time:",
           "if start_time != assign_time:",
           (C + "TestRecordsFile::test_bytes_equal_csv_writer",
            "tests/test_goldens.py::test_run_outputs_match_goldens")),
    Mutant("a repeated YAML key is accepted", CONFIG,
           "data = yaml.load(fh, Loader=_unique_key_loader())",
           "data = yaml.safe_load(fh)",
           ("tests/test_config.py::TestFiles::test_a_repeated_key_names_its_line",
            ERROR_PATH + "[repeated-config-key]")),
    Mutant("a merge key is checked as a key", CONFIG,
           '                if key_node.tag == "tag:yaml.org,2002:merge":\n'
           "                    continue\n",
           "",
           ("tests/test_config.py::TestFiles::test_keys_beside_a_merge_key_override_it",)),
    Mutant("PyYAML is imported with petrel.config", CONFIG,
           "from typing import Any, Mapping\n\n",
           "from typing import Any, Mapping\n\nimport yaml\n\n",
           (ON_DEMAND + "test_importing_petrel_loads_neither",
            ON_DEMAND + "test_csv_commands_load_neither")),
    Mutant("json is imported with petrel.cli", CLI,
           "import gc\nimport os\n",
           "import gc\nimport json\nimport os\n",
           (ON_DEMAND + "test_importing_petrel_loads_neither",
            ON_DEMAND + "test_csv_commands_load_neither")),
    Mutant("a strict bound is checked as >=", MODEL,
           '"> 0": (gt, 0, inf)',
           '"> 0": (ge, 0, inf)',
           (BOUNDS, "tests/test_model.py::TestCloudletValidation::test_rejects_out_of_range_values",
            W + "TestLoadErrors::test_nonpositive_service_time")),
    Mutant("the pair check drops low <= high", CONFIG,
           "_check(in_range(value[0], bound) and value[0] <= value[1], name,",
           "_check(in_range(value[0], bound), name,",
           (BOUNDS, "tests/test_config.py::TestValidation::test_errors_carry_key_paths")),
    Mutant("the list-length check is removed", CONFIG,
           '            if shape == "list":\n'
           "                _check(len(value) == self.cloudlet_count, name,\n"
           '                       f"needs exactly {self.cloudlet_count} entries")\n',
           "",
           (BOUNDS,
            "tests/test_config.py::TestValidation::test_explicit_vm_counts_must_match_the_count")),
    Mutant("the invalid-YAML message is PyYAML's whole text", CONFIG,
           'raise ConfigError(f"{path}: {where}invalid YAML: {what}")',
           'raise ConfigError(f"{path}: invalid YAML: {exc}")',
           ("tests/test_config.py::TestFiles::test_invalid_yaml_is_one_line",
            ERROR_PATH + "[invalid-yaml-syntax]", ERROR_PATH + "[invalid-yaml-python-tag]",
            ERROR_PATH + "[invalid-yaml-unhashable-key]")),
    Mutant("a cloudlet takes a non-finite speed", MODEL,
           "return -inf < value < high and above(value, low)",
           "return above(value, low)",
           ("tests/test_model.py::TestCloudletValidation::"
            "test_rejects_non_finite_speed_and_non_int_vm_count",)),
    Mutant("a count past its upper bound is accepted", MODEL,
           "return -inf < value < high and above(value, low)",
           "return -inf < value < inf and above(value, low)",
           (BOUNDS, ERROR_PATH + "[trace.task_count-past-int64]",
            ERROR_PATH + "[cloudlets.count-past-int64]")),
    # each count's edge: numpy refuses 8 * 2**60 bytes of arrivals, and a run would ask
    # for 8 * n * (n - 1) bytes of RTTs, so the cloudlet mutant is checked by generate only
    Mutant("a task count of 2**60 is accepted", MODEL,
           '">= 0 and <= 2**60 - 1": (ge, 0, 2**60)',
           '">= 0 and <= 2**60 - 1": (ge, 0, 2**60 + 1)',
           (BOUNDS, ERROR_PATH + "[trace.task_count-past-numpy-limit]")),
    Mutant("a cloudlet count of 2**30 + 1 is accepted", MODEL,
           '">= 1 and <= 2**30": (ge, 1, 2**30 + 1)',
           '">= 1 and <= 2**30": (ge, 1, 2**30 + 2)',
           (BOUNDS, ERROR_PATH + "[cloudlets.count-past-numpy-limit]")),
    Mutant("load_trace skips the column bound", WORKLOAD,
           "if bound is not None and not in_range(value, bound):",
           "if False:",
           (W + "TestLoadErrorMessages::test_message",
            W + "TestProfileAndLoaderAgree::test_one_value")),
    Mutant("the one-pass read skips the backwards-arrival check", WORKLOAD,
           "arrivals[-1] < inf and all(map(le, arrivals, arrivals[1:]))",
           "arrivals[-1] < inf",
           (EDIT + "[a-backwards-arrival]", ONE_PASS + "[set_arrival]")),
    Mutant("the one-pass read accepts a negative first arrival", WORKLOAD,
           "arrivals[0] >= 0 and ",
           "",
           (EDIT + "[a-negative-first-arrival]", ONE_PASS + "[set_arrival]")),
    Mutant("the one-pass read accepts an infinite last arrival", WORKLOAD,
           "arrivals[-1] < inf and ",
           "",
           (EDIT + "[an-infinite-last-arrival]", ONE_PASS + "[set_arrival]")),
    Mutant("the one-pass read accepts a repeated id", WORKLOAD,
           "\n                and len(set(ids)) == len(ids)",
           "",
           (EDIT + "[a-repeated-id]", ONE_PASS + "[repeat_id]")),
    Mutant("the one-pass read accepts a lone \\n in a \\r\\n file", WORKLOAD,
           ' or text.count("\\n") != breaks',
           "",
           (EDIT + "[a-lone-lf-after-an-arrival]", ONE_PASS + "[break_row]")),
    Mutant("the one-pass read accepts a lone \\r in a \\r\\n file", WORKLOAD,
           'text.count("\\r") not in (0, breaks)',
           "False",
           (EDIT + "[a-lone-cr-after-an-arrival]", ONE_PASS + "[break_row]")),
    Mutant("the one-pass read takes a quoted name as it is spelled", WORKLOAD,
           """('"' in text or "\\0" in text""",
           """("\\0" in text""",
           (EDIT + "[a-quoted-name]", ONE_PASS + "[quote_field]")),
    Mutant("the one-pass read ignores csv's field size limit", WORKLOAD,
           " or max(map(len, lines)) > csv.field_size_limit()",
           "",
           (W + "TestOnePassRead::test_the_field_size_limit_is_read_at_each_call",
            W + "TestOnePassRead::test_a_line_past_the_field_size_limit_takes_the_row_loop")),
    Mutant("the one-pass read takes a profile of six or eight fields", WORKLOAD,
           "            if len(key) != len(TRACE_COLUMNS) - 3:\n                raise ValueError\n",
           "",
           (EDIT + "[a-field-too-many]", EDIT + "[a-field-too-few]", ONE_PASS + "[field_count]")),
    Mutant("a chunk of the row loop's text may end between \\r and \\n", WORKLOAD,
           '_LINE_END = re.compile(r"\\r\\n?|\\n")',
           '_LINE_END = re.compile(r"\\r|\\n")',
           (SPLIT_ANY,)),
    Mutant("a chunk of the row loop's text ends at its size", WORKLOAD,
           "end = end.end() if end else len(text)",
           "end = min(start + size, len(text))",
           (SPLIT_ANY,)),
    Mutant("the row loop splits lines as str.splitlines does", WORKLOAD,
           'yield from io.StringIO(text[start:end], newline="")',
           "yield from text[start:end].splitlines(keepends=True)",
           (SPLIT + "[a-next-line-in-a-name]", EDIT + "[a-next-line-in-a-name]", SPLIT_ANY)),
    Mutant("the number-kind check is removed", MODEL,
           "isinstance(value, _NUMBERS[kind]) and not isinstance(value, bool)",
           "True",
           (*INT_KEYS, FLOAT_KEYS[1],
            W + "TestBenchmark::test_a_number_is_a_real_in_the_float_range")),
    Mutant("float keys take any type", MODEL,
           "_NUMBERS = {int: Integral, float: Real}",
           "_NUMBERS = {int: Integral, float: object}",
           FLOAT_KEYS),
    Mutant("a numpy float key is kept as given", CONFIG,
           "if kind in (int, float):",
           "if kind is int:",
           ("tests/test_config.py::TestValidation::"
            "test_numpy_floats_are_stored_plain_and_round_trip",)),
    Mutant("every key takes None", CONFIG,
           "if value is None and name in _OPTIONAL:",
           "if value is None:",
           ("tests/test_config.py::TestValidation::"
            "test_only_a_key_whose_default_is_none_takes_none",)),
    Mutant("a direct pair or list key skips the shape check", CONFIG,
           "                _check_shape(value, _PATHS[name], shape, kind)\n",
           "                pass\n",
           ("tests/test_config.py::TestValidation::"
            "test_a_pair_or_list_key_takes_no_other_shape_as_a_file_would",)),
    Mutant("generate_arrivals takes a rate <= 0", WORKLOAD,
           'check_range(arrival_rate, "arrival_rate", "> 0")',
           'check_range(arrival_rate, "arrival_rate")',
           (W + "TestArrivals::test_rejects_bad_arguments",)),
    Mutant("the config seed beats --seed", CLI,
           'overrides["seed"] = args.seed',
           "pass",
           (C + "TestSeedPrecedence::test_flag_beats_the_config",
            C + "TestGenerate::test_writes_a_loadable_trace")),
    Mutant("JSON lines drop the non-finite spelling", CLI,
           "return format_number(value) if isinstance(value, float) and not isfinite(value)"
           " else value",
           "return value",
           (C + "TestRoundingEdges::test_json_lines_spell_a_non_finite_value_as_the_csv_does",)),
    Mutant("a CSV float cell is spelled by str", CLI,
           "return format_number(value) if isinstance(value, float) else str(value)",
           "return str(value)",
           ("tests/test_goldens.py::test_run_outputs_match_goldens",
            "tests/test_goldens.py::test_compare_output_matches_golden")),
    Mutant("the summary row leaves out the per-cloudlet makespans", CLI,
           '    row["per_cloudlet_makespan"] = {str(k): v for k, v in'
           " summary.per_cloudlet_makespan.items()}\n",
           "",
           (C + "TestRun::test_json_lines_summary",
            "tests/test_goldens.py::test_json_lines_run_output_matches_golden")),
    Mutant("a profile takes any task class", MODEL,
           "if not isinstance(self.task_class, TaskClass):",
           "if False:",
           ("tests/test_model.py::TestTaskValidation::test_a_profile_takes_only_a_task_class",
            W + "TestBenchmark::test_a_class_token_is_no_task_class")),
    Mutant("a catalog number is kept as given", WORKLOAD,
           "            object.__setattr__(self, name, stored)\n",
           "",
           (W + "TestBenchmark::test_each_number_is_stored_as_a_plain_float",)),
    Mutant("a benchmark takes any name", WORKLOAD,
           'if kind is TaskClass or value is None and key == "bound_factor":',
           'if kind is not float or value is None and key == "bound_factor":',
           (W + "TestBenchmark::test_the_name_is_a_str",)),
    Mutant("the class key is dropped from task_class", WORKLOAD,
           'task_class: TaskClass = _entry(TaskClass, "class")',
           "task_class: TaskClass = _entry(TaskClass)",
           ("tests/test_config.py::TestLayoutPins::test_save_config_bytes",)),
    Mutant("the trace columns are the profile's attribute names", WORKLOAD,
           "*(column for _, column, _ in _PROFILE_COLUMNS))",
           "*(name for name, _, _ in _PROFILE_COLUMNS))",
           (W + "TestLoadErrors::test_the_columns_are_the_documented_header",)),
    Mutant("rtt_to's scalar test goes back to (int, float)", MODEL,
           "if isinstance(self.remote_rtt, Real):",
           "if isinstance(self.remote_rtt, (int, float)):",
           ("tests/test_model.py::TestNetworkValidation::"
            "test_a_numpy_scalar_remote_rtt_applies_to_every_target",)),
)

# left out of the copy: history, caches and benchmark output
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", "_work")


def run_tests(root: Path, tests: tuple[str, ...]) -> tuple[int, list[str]]:
    """pytest's exit code for ``tests`` in the copy at ``root``, and its lines that name a
    failed test, each without its first word ``FAILED``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    failed = [line[len("FAILED "):] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return proc.returncode, failed


def fails(test: str, failed: list[str]) -> bool:
    """Whether ``test``, a file, class, function or parametrized id, has a failed test.

    ``failed`` holds pytest's ``FAILED <id> - <message>`` lines without their first
    word.  An id may hold spaces, and even " - ", so ``test`` is matched against the
    start of each line and must be followed by its end, "::", "[" or " - "."""
    return any(line.startswith(test) and (line == test or line[len(test):].startswith(
        ("::", "[", " - "))) for line in failed)


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path}; {' '.join(mutant.tests)}")
        return 0
    if argv:
        print("usage: python tests/mutants.py [--list]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="petrel-mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=IGNORED)
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(root, every_test)[0] != 0:
            print("the named tests fail on the unmutated source; fix them first")
            return 1
        bad = 0
        for mutant in MUTANTS:
            target = root / mutant.path
            original = target.read_text(encoding="utf-8")
            count = original.count(mutant.snippet)
            if count != 1:
                print(f"BROKEN   {mutant.name}: the snippet occurs {count} times in {mutant.path}")
                bad += 1
                continue
            target.write_text(original.replace(mutant.snippet, mutant.replacement),
                              encoding="utf-8")
            try:
                code, failed = run_tests(root, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            passed = [t for t in mutant.tests if not fails(t, failed)]
            if code not in (0, 1):
                verdict = f"BROKEN (pytest exit {code})"
            elif passed:
                verdict = f"SURVIVED ({', '.join(passed)} passed)"
            else:
                verdict = "killed"
            print(f"{verdict:8} {mutant.name}")
            bad += verdict != "killed"
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
