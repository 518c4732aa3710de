"""Smoke test: tools/output_digests.py prints its five digests."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digests_prints_five_sha1s():
    # the values depend on the numpy and BLAS build, so only their form is checked
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py")], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert all(re.fullmatch(r".+: [0-9a-f]{40}", line) for line in lines), lines
    assert lines[-1].startswith("generate | stratify grid, 120 cases: ")
