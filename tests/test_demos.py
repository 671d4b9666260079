"""Smoke tests of the narrative demo scripts.

Each script runs in a child process from a scratch directory with the
package on ``PYTHONPATH`` and must exit 0 and print its KS table.
matplotlib is not a dependency of the package: where it is not installed
the scripts take their ``ImportError`` branch, so their figure code is not
exercised by these tests.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One KS line per posterior compared, as each script prints them.
KS_LINES = {
    "limiting_distributions_l63.py": (
        re.compile(r"^  (enkf|tenkf lam=\S+)\s+\d\.\d{4}$", re.M), 6,
    ),
    "bimodal_bridge.py": (re.compile(r"^\s*\d+\.\d{2}   \d\.\d{4}$", re.M), 5),
}


@pytest.mark.parametrize("script", sorted(KS_LINES))
def test_demo_runs_and_prints_ks(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pattern, count = KS_LINES[script]
    assert len(pattern.findall(proc.stdout)) == count, proc.stdout
