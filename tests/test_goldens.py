"""Golden outputs: SHA-256 of the files the CLI writes, pinned byte for byte.

The hashes were taken before the probe hot path was flattened and must
not change when the engine is made faster.  Regenerating one is a
behaviour change and belongs in CHANGES.md with the reason.
"""

import hashlib

import pytest

from petrel.cli import main
from petrel.schedulers import SCHEDULER_NAMES

# (policy, lambda) -> (records.csv, summary.csv) for a 2,000-task trace,
# default config, seed 1234, default probe latency.
RUN_GOLDENS = {
    ("daa", "1"): ("1aa8b26eee6e73452e6090d5af7cfef346d33f3cf32ce770b4208edb3c44188c",
                   "bb3e7b6ac44fcbab8e2417e128d672d24c516d11f9489070524b6b4467c5c389"),
    ("daemon-only", "1"): ("64b231ed6c056def78dbc9db131d0bb27e0970387e8c0f7e25da0db061de1dae",
                           "6d538e73587cca3e309dcc83d66e93bbc2949939808aa6dc5c790823f444da0c"),
    ("round-robin", "1"): ("4f36d784f7dd4c9b5f6214fda06e7c4a67ac32241a2b76c8cc4d30244ac634e7",
                           "5127ea39d7650afe92f8affda40329e762d66af63d0972c830d7730ebb2cc85d"),
    ("greedy", "1"): ("1f9f810efbb4e6ca34e8cbd66093e547f7bee9b3d1e83a22724b890782a3ce63",
                      "e51c93a9608b18d2507ea745f1b6cbf94205feca55763ad3366687730e8d1306"),
    ("two-choices", "1"): ("84f3d467d684bfc8106f9e9700c254b38131e78dba6aed1b71430ae13481f630",
                           "39c5eb7247ea8ef9d3abffaf85e7b6c1b34cc5aa71094f68502b1626c667204c"),
    ("cloud-only", "1"): ("da5b5d85632555b5edf69b2f914891ae4101abbea50f9b5fc499711bcc5e01a6",
                          "018edd2243640a7bccb51a491b585c1ccdef8f89f4ae9cfaf78de57ee81dbacc"),
    ("daa", "4"): ("fc242547f558102a776e0cc306219a8bec30a03e0698ec6546e635971724796a",
                   "607a44fb50f2488f967f78d25f37c74870c8592a647e0157e874871cd82b96ff"),
    ("daemon-only", "4"): ("697dbc5ddbb4dde20f95927b0bbf1c8db922dd2e70304f89d7fc6cf3f8e36a3c",
                           "9ee012bed95571e2d1aee37e1fa4bbc9416cd00e03471b8c7b2031319f2a3d8d"),
    ("round-robin", "4"): ("f6e4f6a70476ba5ca345b54f17aa66c16bfff7c6c7e49204c5965f011cce2036",
                           "09328070bcacf084ae3826621e8228936ffb515b7a6c48fbe9536b59c1dfbb12"),
    ("greedy", "4"): ("ae043b7750374a63d089b9277388fc4449692ba4f489e5b34ec0d4f9db49b2cc",
                      "5cd8ee1e9840f408df5a9a55900cf119edaebc9fe563ed8888ef79e128a6c4c7"),
    ("two-choices", "4"): ("cc68ec0ea38f108b6843dedae0858c12dc3e6b90db46d648bd2ead8f8fb625c9",
                           "ec7850242ac4367bc33d3fdbb8b0a08b2071600e8216d5673702029c6774a29c"),
    ("cloud-only", "4"): ("3865741f859e02e9b46d77815df57ca74c7fbc40cb4488b9e415ba236c16d8cb",
                          "93026db74c41f5ff6cb4c0f5f9b63d4d5dd288bfc936ddf5743747379fd2e0aa"),
}

# The trace file path: trace.csv of `petrel generate --tasks 2000 --lambda L
# --seed 1234`, and records.csv of `petrel run --trace <that file>
# --scheduler P --seed 1234`.  The run goldens above never write a trace.
TRACE_GOLDENS = {
    "1": "fa8001d9db8e0690589ed558a8dcc15fabb5e339d0fa8e0b6e0a43ae6c284169",
    "4": "c394215ab887a7984865f02f741933e5b1c03d8f60baa477a397d63a20c27261",
}
TRACE_RUN_GOLDENS = {
    ("daa", "1"): "347dc35f72c41b45da09af0635437f070fba7dbca7795ec112e196a257de7ecb",
    ("daemon-only", "1"): "0aa12c95d57e62434d797dcd365a65ade6a75e80e6af1ddb6e1ce3bb1b4e0ae6",
    ("daa", "4"): "a0c681af8241cff98fbbd7b162e900f538fc518ffc9eba0b9b17e953225b615f",
    ("daemon-only", "4"): "8426a95fcce1aa63533b215c978908a90e781df2a07c526f26c5a902c5b2f5f4",
}

# comparison.csv of `petrel compare --seeds 1..3 --seed 1234` (all policies, lambda 1,2).
COMPARE_GOLDEN = "b1680f580b90eafeeea50c1469566f7102911468f69716c36ba816ede516d6bc"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
@pytest.mark.parametrize("lam", ["1", "4"])
def test_run_outputs_match_goldens(tmp_path, capsys, policy, lam):
    code = main(["run", "--scheduler", policy, "--tasks", "2000", "--lambda", lam,
                 "--seed", "1234", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    got = (sha256(tmp_path / "records.csv"), sha256(tmp_path / "summary.csv"))
    assert got == RUN_GOLDENS[(policy, lam)]


def test_compare_output_matches_golden(tmp_path, capsys):
    code = main(["compare", "--seeds", "1..3", "--seed", "1234", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert sha256(tmp_path / "comparison.csv") == COMPARE_GOLDEN


def generate_golden_trace(tmp_path, lam):
    trace = tmp_path / "trace.csv"
    code = main(["generate", "--tasks", "2000", "--lambda", lam, "--seed", "1234",
                 "--trace", str(trace)])
    assert code == 0
    return trace


@pytest.mark.parametrize("lam", ["1", "4"])
def test_generated_trace_file_matches_golden(tmp_path, capsys, lam):
    trace = generate_golden_trace(tmp_path, lam)
    capsys.readouterr()
    assert sha256(trace) == TRACE_GOLDENS[lam]


@pytest.mark.parametrize("policy", ["daa", "daemon-only"])
@pytest.mark.parametrize("lam", ["1", "4"])
def test_run_from_trace_file_matches_golden(tmp_path, capsys, policy, lam):
    trace = generate_golden_trace(tmp_path, lam)
    code = main(["run", "--trace", str(trace), "--scheduler", policy, "--seed", "1234",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    capsys.readouterr()
    assert sha256(tmp_path / "out" / "records.csv") == TRACE_RUN_GOLDENS[(policy, lam)]
