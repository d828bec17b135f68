"""Every demo runs to completion and writes the files it announces.

A RuntimeWarning (a numpy divide or overflow) fails the demo, as it fails the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES = {"03_additive_structure.py": "perceptions.edges", "04_contribution_game.py": "paths.csv"}


def test_written_files_name_real_demos():
    assert len(DEMOS) == 4
    assert set(WRITES) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    written = WRITES.get(demo.name)
    if written is not None:
        assert (tmp_path / written).stat().st_size > 0
