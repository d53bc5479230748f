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
COMPARATOR = S + "TestDecisionsMatchThePairComparator"
BOUNDS = "tests/test_config.py::TestValidation::test_each_bound_names_its_rule"
INT_KEYS = ("tests/test_config.py::TestValidation::"
            "test_an_int_key_takes_no_other_type_as_a_file_would",
            "tests/test_config.py::TestValidation::test_an_integral_float_is_not_an_int_key")

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
           "heappush(wakeups, (now + delay, sequence, index, delays))",
           "heappush(wakeups, (now + delay, index, index, delays))",
           (E + "TestReplayAgreement",)),
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
           (W + "TestLoadErrors::test_non_finite_values_name_the_column",)),
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
           "data = yaml.load(fh, Loader=_UniqueKeyLoader)",
           "data = yaml.safe_load(fh)",
           ("tests/test_config.py::TestFiles::test_a_repeated_key_names_its_line",
            ERROR_PATH + "[repeated-config-key]")),
    Mutant("a merge key is checked as a key", CONFIG,
           '            if key_node.tag == "tag:yaml.org,2002:merge":\n                continue\n',
           "",
           ("tests/test_config.py::TestFiles::test_keys_beside_a_merge_key_override_it",)),
    Mutant("a strict bound is checked as >=", MODEL,
           '"> 0": (gt, 0)',
           '"> 0": (ge, 0)',
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
           "return -inf < value < inf and above(value, low)",
           "return above(value, low)",
           ("tests/test_model.py::TestCloudletValidation::"
            "test_rejects_non_finite_speed_and_non_int_vm_count",)),
    Mutant("load_trace skips the column bound", WORKLOAD,
           "if bound is not None and not in_range(value, bound):",
           "if False:",
           (W + "TestLoadErrorMessages::test_message",
            W + "TestProfileAndLoaderAgree::test_one_value")),
    Mutant("the int-kind check is removed", CONFIG,
           "_check(all(isinstance(v, Integral) and not isinstance(v, bool) for v in entries),",
           "_check(True,",
           INT_KEYS),
    Mutant("rtt_to's scalar test goes back to (int, float)", MODEL,
           "if isinstance(self.remote_rtt, Real):",
           "if isinstance(self.remote_rtt, (int, float)):",
           ("tests/test_model.py::TestNetworkValidation::"
            "test_a_numpy_scalar_remote_rtt_applies_to_every_target",)),
)

# left out of the copy: history, caches and benchmark output
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", "_work")


def run_tests(root: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code for ``tests`` in the copy at ``root``, and the ids that failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed


def fails(test: str, failed: set[str]) -> bool:
    """Whether ``test``, a file, class, function or parametrized id, has a failed test."""
    return any(f == test or f.startswith((f"{test}::", f"{test}[")) for f in failed)


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
