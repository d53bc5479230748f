"""The README's walkthroughs in ``demos/`` run cleanly from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import petrel

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == [
        "completion_model.py", "delay_and_staleness.py", "policy_showdown.py", "single_run.py",
    ]


def run_demo(demo, cwd):
    src = os.path.dirname(os.path.dirname(petrel.__file__))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(tmp_path, demo):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


COMPLETION_MODEL_STDOUT = """\
task: 6400 ms of work, 2.4 MB of input data

placement                  exec    wait     comm     total
mobile (no offload)       28800       0        0     28800
daemon, idle VM            6400       0      202      6602
daemon, 3 s queue          6400    3000      202      9602
neighbour (2x faster)      3200       0      262      3462
cloud                      6400       0     3250      9650

speedup over the device (above 1 means offloading won):
  daemon, idle VM        4.36x
  neighbour (2x faster)  8.32x
  cloud                  2.98x
"""


def test_completion_model_prints_the_pinned_table(tmp_path):
    proc = run_demo(DEMOS[0], tmp_path)
    assert proc.stdout == COMPLETION_MODEL_STDOUT
