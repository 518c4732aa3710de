"""One fresh interpreter: times `import commvar.cli`, then the workload's first op.

Started by `run.py` several times per run; prints one JSON object with the
import time, the first op's time, a machine-speed sample taken after them
(see speed.py), the first op's output digest and its check result.
The first op pays whatever the package leaves to its first call, such as a
deferred import or a cache filled on first use.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

_t0 = time.perf_counter()
import commvar.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402
import workloads  # noqa: E402


def main(workload: str, seed: int) -> int:
    op = workloads.WORKLOADS[workload]().round_ops(seed, 0)[0]
    start = time.perf_counter()
    out = op.run()
    first_s = time.perf_counter() - start
    ref_s = statistics.fmean(speed.reference() for _ in range(4))
    print(json.dumps({"import_s": IMPORT_S, "first_op_s": first_s, "ref_s": ref_s,
                      "digest": workloads.digest(out), "failure": op.check(out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
