"""The measurement scripts under scripts/ still run against the program."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300, check=False)


def test_graph_memory_reports_a_reference_step():
    """A masked pretraining step at the reference config is 62 tape nodes."""
    proc = run_script("graph_memory.py", "--per-view", "4", "--top", "1")
    assert proc.returncode == 0, proc.stderr[-4000:]
    first = proc.stdout.splitlines()[0]
    assert "62 tape nodes" in first, first
