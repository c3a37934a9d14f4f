"""Run every narrative script under demos/ end to end.

Each demo runs in a fresh interpreter with a temporary working directory,
because some of them write CSV files next to where they are started.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhdeg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(nhdeg.__file__).resolve().parents[1])


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # -W error: a warning fails a demo, as it fails the suite
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
