"""Every demo script runs to completion against the package in ``src/``.

Each demo's stdout is deterministic and pinned by its sha256, so a
refactor that changes what a demo prints fails here. After a deliberate
change of output, print the new hash with
``python demos/<name>.py | sha256sum``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_maze_generation.py": "5fe66caf5f1af429eb85f2c5be781785dcd962a729b9657f7168387098b37d5d",
    "02_spiral_coverage.py": "67d6cd540e13d0d2e54de7edd4026997b4e1a76ea7b5ecab7dbae4ade14fb6a4",
    "03_astar_replanning.py": "aa1fe3bb1d44339c85721645ff294ea8628292b1c5fca7dc0a7980e9a1b2af9e",
    "04_threshold_learning.py": "a43ebb72fda54c1ab62c2ef2d248a04e6b93223c9f160214465f349d0f550cfb",
    "05_benchmark.py": "c33142fa820c88cc66cf739cd874c6da9ee11f76731fbf2d0dedef48248e81d6",
}


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
