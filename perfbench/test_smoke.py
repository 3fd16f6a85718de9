"""Self-test of the benchmark harness: ``python -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path


def test_smoke_emits_every_metric_with_its_unit():
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=root, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "smoke ok"
