"""One benchmark run of one workload, in its own process.

Started by `run.py` with BLAS and OpenMP pinned to one thread; prints one
JSON object on its last stdout line.  `--mode timed` drives a closed loop
with one client over `rounds(seconds)` rounds of ops, each op with inputs of
its own.  `--mode plain` and `--mode traced` run the smaller request set of a
traced run once, untraced or traced; `run.py` compares two traced processes'
counts and times the untraced one for the tracing overhead.  Every mode
starts cold: the first op timed is the first op this process runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

_t0 = time.perf_counter()
import commvar.cli  # noqa: E402,F401  (timed: what every CLI invocation pays)

IMPORT_S = time.perf_counter() - _t0

import speed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: share of `--seconds` of untraced work that a traced run's request set holds
TRACE_SHARE = 0.25


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_ops(ops, tracer=None):
    """Run ops in order; returns (outputs, latencies in seconds)."""
    outputs, latencies = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        outputs.append(op.run())
        latencies.append(time.perf_counter() - start)
    return outputs, latencies


def _check(ops, outputs) -> dict[int, str]:
    """Index -> failure message of every op whose output fails its check."""
    failures = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        msg = op.check(out)
        if msg is not None:
            failures[i] = f"{op.label}: {msg}"
    return failures


def _result(ops, failures: dict[int, str], metrics: dict, samples: dict, errors=()) -> dict:
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failed_ops": sorted(failures),
        "failures": [failures[i] for i in sorted(failures)][:20],
        "errors": list(errors),
        "metrics": metrics,
        "samples": samples,
    }


def closed_loop(w: workloads.Workload, seed: int, seconds: float) -> dict:
    """Every op of the request set once, in order, with a machine-speed
    sample after each EVERY_S of ops (never before the first op, so that it
    stays cold).  The timing metrics are of the ops' times scaled to the
    reference machine (speed.py); the unscaled ones are reported as `raw`,
    with ops_per_s over the wall time of the whole loop less the samples."""
    rounds = w.rounds(seconds)
    ops = w.request_set(seed, rounds)  # inputs are built outside the timed region
    outputs, timed, refs = [], [], []
    start = last = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        outputs.append(op.run())
        done = time.perf_counter()
        timed.append((t, done - t))
        if done - last >= speed.EVERY_S:
            refs.append((done, speed.reference()))
            last = time.perf_counter()
    wall = time.perf_counter() - start - sum(r for _, r in refs)
    if not refs:
        refs.append((time.perf_counter(), speed.reference()))
    failures = _check(ops, outputs)
    # the same requests built and run again must give the same output
    again, _ = _run_ops(w.round_ops(seed, 0))
    for i, out in enumerate(again):
        if out != outputs[i] and i not in failures:
            failures[i] = f"{ops[i].label}: a second run gave another output"
    latencies = speed.scaled(timed, refs)
    tail_p, tail_v = stats.tail(latencies)
    raw = [x for _, x in timed]
    return _result(ops, failures, {
        "ops_per_s": len(ops) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_v,
        "peak_rss_mb": _peak_rss_mb(),
    }, {"ops": len(ops), "rounds": rounds, "wall_s": wall, "tail_percentile": tail_p,
        "first_digest": workloads.digest(outputs[0]),
        "raw": {"ops_per_s": len(ops) / wall,
                "latency_p50_ms": 1e3 * statistics.median(raw),
                "latency_tail_ms": 1e3 * stats.tail(raw)[1]},
        "speed": speed.speed([r for _, r in refs]),
        "ref_samples_s": [r for _, r in refs]})


def trace_pass(w: workloads.Workload, seed: int, seconds: float, traced: bool,
               out_dir: str) -> dict:
    """One cold pass over the traced run's request set, traced or not."""
    ops = w.request_set(seed, w.rounds(seconds * TRACE_SHARE))
    tr = tracing.Tracer(extra_modules=[workloads]) if traced else None
    if tr is not None:
        tr.install()
    try:
        start = time.perf_counter()
        outputs, _ = _run_ops(ops, tr)
        wall = time.perf_counter() - start
    finally:
        wrong = tr.uninstall() if tr is not None else []
    metrics = {}
    if tr is not None:
        metrics = tracing.layer_metrics(tr, wall)
        metrics["cli.import_s"] = IMPORT_S
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{w.name}-{seed}.json"), "w") as fh:
            json.dump({"workload": w.name, "seed": seed, "wall_s": wall,
                       "spans": tr.rows()}, fh)
    return _result(ops, _check(ops, outputs), metrics,
                   {"ops": len(ops), "wall_s": wall,
                    "spans": len(tr.spans) if tr is not None else 0,
                    "digests": [workloads.digest(out) for out in outputs]},
                   errors=[f"binding not restored: {b}" for b in wrong])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "plain", "traced"))
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]()
    if args.mode == "timed":
        result = closed_loop(w, args.seed, args.seconds)
    else:
        result = trace_pass(w, args.seed, args.seconds, args.mode == "traced", args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
