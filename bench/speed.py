"""Machine speed, from a fixed computation timed between ops.

The reference machine shares its cores with other workloads and runs any
computation up to 1.8x slower for seconds to minutes at a time.  `reference()`
times a fixed mix of small dense linear algebra and Python loops, close to
what commvar's kernel does, and uses no commvar code.  A timed run
samples it every EVERY_S between ops, and `scaled` multiplies each op's
time by REF_S over the mean of the samples just before and just after the
op, so that it reads as on the reference machine unloaded.  `speed(samples)`
is REF_S over a mean sample: 1.0 unloaded, below 1 while the machine is
slowed.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: seconds `reference()` takes on the reference machine unloaded
REF_S = 0.005
#: seconds of ops between two reference samples in a timed run; the load
#: changes every few hundred milliseconds, and with 0.5 s config-tower's tail
#: latency spread wider scaled than unscaled
EVERY_S = 0.1


def reference() -> float:
    """Seconds one fixed computation takes now."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = a + a.conj().T
    acc = 0.0
    start = time.perf_counter()
    for _ in range(50):
        _, v = np.linalg.eigh(h)
        h = v.conj().T @ h @ v + 1e-3 * (a + a.conj().T)
        for i in range(12):
            for j in range(i + 1, 12):
                acc += abs(h[i, j])
        np.linalg.qr(v + 0.1 * a)
        h = 0.5 * (h + h.conj().T)
    return time.perf_counter() - start


def speed(samples) -> float:
    """Machine speed relative to the reference machine, from reference() times."""
    return REF_S / statistics.fmean(samples)


def scaled(ops, refs) -> list[float]:
    """Each op's (start, seconds) as seconds on the reference machine
    unloaded; `refs` holds (time, reference() seconds) samples in time order,
    at least one."""
    times = [t for t, _ in refs]
    out = []
    for start, seconds in ops:
        k = bisect.bisect_right(times, start)  # refs[k - 1] before the op, refs[k] after
        around = [r for _, r in refs[max(0, k - 1):k + 1]]
        out.append(seconds * REF_S / statistics.fmean(around))
    return out
