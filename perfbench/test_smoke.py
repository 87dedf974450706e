"""Self-test of the benchmark harness on tiny grids (no timing bounds).

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_emits_every_metric_and_gate_rejects_wrong_mu():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
