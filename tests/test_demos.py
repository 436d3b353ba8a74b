"""Every demo script runs to completion against the library as it stands.

Each demo is run in a fresh interpreter with ``src`` on ``PYTHONPATH``, so
a demo that calls a renamed or deleted function fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
