"""The benchmark's output checks still read this package's results.

``bench/run.py --self-test`` runs the benchmark's independent checks on
real Monte Carlo results and shows that each check rejects a corrupted
one. The checks read the trial records and re-derive the named fading
streams, so a change to the record API or the stream tags has to fail
here. The benchmark is run as it is, never changed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 self-test failures"
