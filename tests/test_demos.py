"""Every demo script runs to completion (demo 03 with ``--quick``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos write their data under tempfile's directory: keep it here
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(p for p in path if p))
    args = ["--quick"] if demo.name.startswith("03_") else []
    done = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
    assert not list(tmp_path.glob("gad_*")), "demo left its temporary directory"
