"""Each demo script runs to completion in a fresh interpreter."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
