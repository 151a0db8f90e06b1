"""The demo scripts run to completion against the library and print what
their golden files under ``tests/golden/`` hold."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import assert_matches_golden

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_0(tmp_path):
    # a public name the library drops fails here, not in a reader's hands
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in demos:
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (script.name, done.stderr)
        assert_matches_golden(done.stdout, f"{script.stem}.txt")
