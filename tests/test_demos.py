"""Demo output pinned byte for byte.

Demos 01-04 print seed-averaged results of the sampling engine, so any
change to a trace shows up in their stdout; demo 05 prints the exact
oracle's branch count, closedness and reach bound, and the chi-square
statistic of the engine's sampler.  Each runs in a fresh interpreter; a
change that moves one printed byte fails here.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_convergence.py":
        "5e6314f4dd0f99786c0515099871b9cefbfad54d50b70f65680b947d3ee7cad3",
    "02_malicious_majority.py":
        "bd524bea82fd05922f6dc9040bf7228931224627797b87894619a3a86e327038",
    "03_partial_coverage.py":
        "fd9c740c5399bec66400db9ad912d0556d07e2b2d12930970d844109bd6d3b17",
    "04_dynamic_change.py":
        "ac0e4594b6054b8a6cb08e3c9b0558e73f370f4c5f7e32099a986e49ae8540a1",
    "05_exact_chain.py":
        "73519e640decf9574959fbe844b303a6a9ee695e72821dd2d7e33c0cf31fc4c0",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
