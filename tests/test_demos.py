"""The quick demos run to completion from a clean directory, without a
warning. Demos 04-06 run whole pipelines and write ``demo_runs/``, so they
are left to be run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_train_a_tiny_transformer",
                                  "02_plans_pruning_and_quantization",
                                  "03_sign_matching_attention"])
def test_demo_runs_cleanly(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
