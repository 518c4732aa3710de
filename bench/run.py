"""Benchmark of commvar: one run of one workload, or of all three.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
`--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run.  Every metric is printed by name with its
unit and sample count; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every correctness
check passed, 1 when one failed, 2 when the run could not be made.

`--workload all` runs the three workloads in turn and prints each one's
block; its exit code is the worst of theirs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("verify-all", "stratify-large", "config-tower")
END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: fresh interpreters per run for setup_s
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 160
OUT_DIR = ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env(root: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_runs(root: str, env: dict, workload: str, seed: int, runs: int) -> list[dict]:
    """`runs` fresh interpreters, each timing `import commvar.cli` and then
    the workload's first op (see cold.py)."""
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cold.py"), workload, str(seed)],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_info(root: str, env: dict, seed: int) -> dict:
    info = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; print(json.dumps({'numpy': numpy.__version__, "
         "'scipy': scipy.__version__}))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True)
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "commvar")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(info.stdout),
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def worker(root: str, env: dict, workload: str, seed: int, seconds: int, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out-dir", os.path.join(root, OUT_DIR)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(result: dict, failures: dict[int, str], errors: list[str], metrics: dict,
            samples: dict, info: dict) -> dict:
    """One workload's report; `failures` (op index -> message) adds to the
    worker's own failed ops, `errors` are failures of the run itself."""
    failed = set(result["failed_ops"]) | set(failures)
    messages = result["failures"] + [failures[i] for i in sorted(failures)]
    return {
        "correct": not failed and not errors,
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": metrics,
        "samples": samples,
        "failures": messages[:20] + errors,
        "info": info,
    }


def run_timed(root: str, workload: str, seed: int, seconds: int) -> dict:
    """The end-to-end metrics: fresh interpreters split around one timed worker."""
    env = _env(root)
    info = machine_info(root, env, seed)
    # an installed package has its bytecode cache; the interpreters are
    # split around the worker so that a burst of load from other processes
    # cannot cover all of them
    for path in (os.path.join(root, "src"), HERE):
        compileall.compile_dir(path, quiet=1)
    cold = cold_runs(root, env, workload, seed, SETUP_RUNS // 2)
    result = worker(root, env, workload, seed, seconds, "timed")
    cold += cold_runs(root, env, workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
    failures = {}
    for c in cold:
        if c["failure"] is not None:
            failures[0] = f"first op in a fresh interpreter: {c['failure']}"
        elif c["digest"] != result["samples"]["first_digest"]:
            failures[0] = "first op gave another output in a fresh interpreter"
    metrics = dict(result["metrics"])
    # set-up is what a fresh process pays before its first result: the
    # import and the first op, so that work deferred from one to the other
    # does not read as a gain; each interpreter's own speed sample scales it
    setup = [c["import_s"] + c["first_op_s"] for c in cold]
    metrics["setup_s"] = statistics.median(
        x * speed.speed([c["ref_s"]]) for x, c in zip(setup, cold))
    ops = result["samples"]["ops"]
    samples = {name: ops for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")}
    samples.update(setup_s=len(cold), peak_rss_mb=1)
    info["raw"] = dict(result["samples"].pop("raw"), setup_s=statistics.median(setup))
    info.update(workload=workload, trace=0, seconds=seconds,
                import_samples_s=[c["import_s"] for c in cold],
                setup_ref_samples_s=[c["ref_s"] for c in cold],
                first_op_samples_s=[c["first_op_s"] for c in cold], **result["samples"])
    return _report(result, failures, result["errors"], metrics, samples, info)


def run_traced(root: str, workload: str, seed: int, seconds: int) -> dict:
    """The per-layer metrics: two traced processes around one untraced one,
    each a cold pass over the same request set."""
    env = _env(root)
    info = machine_info(root, env, seed)
    a = worker(root, env, workload, seed, seconds, "traced")
    plain = worker(root, env, workload, seed, seconds, "plain")
    b = worker(root, env, workload, seed, seconds, "traced")
    failures, errors = {}, a["errors"] + b["errors"]
    for other, name in ((plain, "untraced"), (b, "second traced")):
        for i in other["failed_ops"]:
            failures.setdefault(i, f"op {i} failed its check in the {name} run")
        for i, (x, y) in enumerate(zip(a["samples"]["digests"], other["samples"]["digests"])):
            if x != y:
                failures.setdefault(i, f"op {i} gave another output in the {name} run")
    errors += [f"{name} differs between traced runs: {a['metrics'][name]} != {b['metrics'][name]}"
               for name in tracing.EXACT if a["metrics"][name] != b["metrics"][name]]
    metrics = dict(a["metrics"])
    traced_wall = (a["samples"]["wall_s"] + b["samples"]["wall_s"]) / 2
    metrics["trace.overhead_ratio"] = traced_wall / plain["samples"]["wall_s"] - 1.0
    samples = {name: a["attempted"] for name in metrics}
    info.update(workload=workload, trace=1, seconds=seconds, ops=a["attempted"],
                spans=a["samples"]["spans"],
                traced_wall_s=[a["samples"]["wall_s"], b["samples"]["wall_s"]],
                untraced_wall_s=plain["samples"]["wall_s"])
    return _report(a, failures, errors, metrics, samples, info)


def _units(trace: int) -> dict:
    return dict(tracing.PER_LAYER) if trace else END_TO_END


def print_report(report: dict, trace: int):
    info = report["info"]
    print(f"# {info['workload']} seed={info['seed']} trace={trace} "
          f"ops={report['attempted']} failed={report['failed']} "
          f"fail_ratio={report['failed'] / report['attempted']:.6g} ratio")
    for name, unit in _units(trace).items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f" (p{info['tail_percentile']})"
        elif name == "setup_s":
            extra = " (import and first op, median of fresh interpreters)"
        print(f"{name} = {report['metrics'][name]!r} {unit} n={report['samples'][name]}{extra}")
    for msg in report["failures"]:
        print(f"FAILED {msg}")
    print("# run " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "commvar", "cli.py")):
        print("run.py: no src/commvar here; run it from the root of a commvar checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    worst, reports = 0, []
    for name in names:
        run = run_traced if args.trace else run_timed
        try:
            report = run(root, name, args.seed, args.seconds)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        print_report(report, args.trace)
        worst = max(worst, 0 if report["correct"] else 1)
        reports.append(report)
    units = _units(args.trace)
    if len(reports) == 1:
        metrics = {k: {"value": reports[0]["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {f"{r['info']['workload']}.{k}": {"value": r["metrics"][k], "unit": u}
                   for r in reports for k, u in units.items()}
    print(json.dumps({
        "correct": worst == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return worst


if __name__ == "__main__":
    sys.exit(main())
