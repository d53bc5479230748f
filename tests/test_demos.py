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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(tmp_path, demo):
    src = os.path.dirname(os.path.dirname(petrel.__file__))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
