"""The benchmark's own test: run.py --smoke on tiny sizes.

    python3 -m pytest perfbench

Smoke mode runs every workload traced and untraced at tiny sizes (a Q_4
orbit sweep, a few hundred samples), requires every metric of
BENCHMARK.json to be emitted with its unit, and requires a deliberately
wrong expected value to fail each workload's output check.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == '{"correct": true}'
