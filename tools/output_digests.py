"""Print sha1 digests of the command-line output that must stay byte-identical.

    python tools/output_digests.py

Five lines, each a label and a sha1:

- the stdout of `verify --suite all --trials 25 --seed k`, for k = 0..3;
- one digest over the 120-case `generate | stratify` grid: three kinds,
  n = 0..3, s in {1, 3, 6, 12, 24} and seeds {0, 7}, each generated tuple
  fed to `stratify` in both output modes, with every command's exit code.

Everything runs in this process through `commvar.cli.main`, on the `src/`
tree next to this script.  The digests hold for one numpy and BLAS build,
kernel and thread count (README, Determinism), so compare two trees on one
machine, not against digests from another.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commvar.cli import main  # noqa: E402
from commvar.commodel import KINDS  # noqa: E402

GRID = [(kind, n, s, seed) for kind in KINDS for n in range(4) for s in (1, 3, 6, 12, 24)
        for seed in (0, 7)]


def run(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """Exit code and stdout of one command, run in process."""
    saved, sys.stdin, out = sys.stdin, io.StringIO(stdin), io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def grid_digest() -> str:
    digest = hashlib.sha1()
    for kind, n, s, seed in GRID:
        code, tup = run(["generate", "--kind", kind, "--n", str(n), "--s", str(s),
                         "--seed", str(seed)])
        digest.update(f"{code}\n{tup}".encode())
        for mode in ("json", "text"):
            code, report = run(["stratify", "--output", mode], tup)
            digest.update(f"{code}\n{report}".encode())
    return digest.hexdigest()


def digests() -> list[tuple[str, str]]:
    """(label, sha1) of each verify seed, then of the grid."""
    lines = []
    for seed in range(4):
        argv = ["verify", "--suite", "all", "--trials", "25", "--seed", str(seed)]
        lines.append((" ".join(argv), hashlib.sha1(run(argv)[1].encode()).hexdigest()))
    lines.append((f"generate | stratify grid, {len(GRID)} cases", grid_digest()))
    return lines


if __name__ == "__main__":
    for label, sha in digests():
        print(f"{label}: {sha}")
