"""The benchmark's own tests: its smoke mode must pass, and without the
package next to it the benchmark must fail without printing a result.

Both run the benchmark in a child process, so its thread pinning and the
traced run's rebinding of package functions never reach the test process.
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_mode_passes():
    proc = _run(HERE.parent, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 3, proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "lca-select", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
