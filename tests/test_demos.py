"""Every script under demos/ runs to completion on the installed source."""

import os
import subprocess
import sys

import pytest

import hcplab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(hcplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
