"""The scripts under scripts/ run to completion with their default arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeshift as ts

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["cesaro_decay.py", "divergence_scan.py"])
def test_script_runs_with_defaults(name):
    src = str(Path(ts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, str(SCRIPTS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
