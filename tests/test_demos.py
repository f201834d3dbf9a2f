"""Each demo script runs to completion against the source tree."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=src_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
