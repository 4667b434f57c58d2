"""Golden outputs of the demos.

Each script in ``demos/`` prints simulated counts (misses, rounds,
critical paths, hull vertices).  A change that only speeds the simulator
up must leave them byte for byte the same, so each demo's stdout is
compared with its file in ``tests/demo_outputs/``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert DEMOS == sorted(p.stem for p in OUTPUTS.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_golden_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (OUTPUTS / f"{name}.txt").read_bytes()
