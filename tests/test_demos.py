"""Each narrative demo runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetareg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the package's parent directory goes first on the path, so the demos
    # import the same zetareg as the tests; demo 05 writes into its cwd
    src = str(Path(zetareg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
