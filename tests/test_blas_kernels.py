"""The determinism contract across OpenBLAS kernels.

numpy's bundled OpenBLAS is built with DYNAMIC_ARCH: it picks a kernel for
the CPU at load time, and OPENBLAS_CORETYPE overrides the pick.  Output bytes
are promised only for one kernel; across kernels, every decision (exit
codes, ranks, decomposition types, verify failure counts) must be the same
and every written value must agree within VALUE_BOUND of the host kernel's,
relative to the largest entry of its matrix.  One child process per kernel
the CPU can run (and one on the host's own pick) runs a small
generate | stratify grid and verify in process, with one BLAS thread.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import commvar
from commvar import jsonio

VALUE_BOUND = 1e-12

# each kernel below the host's, with the CPU flags it needs (Linux calls
# SSE3 "pni")
KERNEL_FLAGS = {"Prescott": {"pni"}, "SandyBridge": {"avx"}, "Haswell": {"avx2", "fma"}}

CHILD = r"""
import contextlib, io, json, sys
from commvar.cli import main

def run(argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, json.loads(out.getvalue())]

grid = []
for kind in ("unitary", "skew_hermitian", "real_symmetric"):
    for n in (1, 3):
        for s in (1, 4, 12):
            for seed in (0, 7):
                gen = run(["generate", "--kind", kind, "--n", str(n), "--s", str(s),
                           "--seed", str(seed)])
                grid.append([gen, run(["stratify"], json.dumps(gen[1]))])
print(json.dumps({"grid": grid,
                  "verify": run(["verify", "--suite", "all", "--trials", "3", "--seed", "0"])}))
"""


def _openblas_config() -> str:
    """The configuration string of numpy's bundled OpenBLAS, or ""."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return ""


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split()[2:]}


def _start(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = os.path.dirname(os.path.dirname(commvar.__file__))
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _stacks(doc: dict) -> list:
    return [jsonio.matrix_from_json(m) for m in doc["mats"]]


def _worst(got, want) -> float:
    """The largest entry difference of two matrices, relative to want's
    largest entry (absolute where that is 0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0)
    return np.abs(got - want).max(initial=0.0) / (scale if scale > 0 else 1.0)


def _compare(got: dict, want: dict) -> float:
    """Assert that got decides as want does, and return the worst relative
    value deviation of its matrices."""
    worst = [0.0]
    assert len(got["grid"]) == len(want["grid"])
    for (gen, strat), (gen0, strat0) in zip(got["grid"], want["grid"]):
        assert gen[0] == gen0[0] == 0
        assert [gen[1][k] for k in ("n", "s", "kind")] == [gen0[1][k] for k in ("n", "s", "kind")]
        worst += map(_worst, _stacks(gen[1]), _stacks(gen0[1]))
        assert strat[0] == strat0[0]
        report, report0 = strat[1], strat0[1]
        if strat[0] != 0:
            assert report["error"] == report0["error"]
            continue
        assert (report["rank"], report["decomposition_type"]) == (
            report0["rank"], report0["decomposition_type"])
        assert (report["chart"] is None) == (report0["chart"] is None)
        if report["chart"] is not None:
            worst += map(_worst, _stacks(report["chart"]["X"]), _stacks(report0["chart"]["X"]))
            worst.append(_worst(jsonio.matrix_from_json(report["chart"]["f"]),
                                jsonio.matrix_from_json(report0["chart"]["f"])))
            worst += map(_worst, _stacks(report["split"]["traceless"]),
                         _stacks(report0["split"]["traceless"]))
            worst.append(_worst(report["split"]["tau"], report0["split"]["tau"]))
    (code, summary), (code0, summary0) = got["verify"], want["verify"]
    assert code == code0
    assert [(s["suite"], s["failures"]) for s in summary["suites"]] == [
        (s["suite"], s["failures"]) for s in summary0["suites"]]
    return max(worst)


@pytest.fixture(scope="module")
def kernel_runs():
    """Each kernel's child output, None for the host's own pick."""
    if "DYNAMIC_ARCH" not in _openblas_config():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    flags = _cpu_flags()
    children = {k: _start(k) for k in [None, *KERNEL_FLAGS] if not k or KERNEL_FLAGS[k] <= flags}
    runs = {}
    for kernel, proc in children.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (kernel, err)
        runs[kernel] = json.loads(out)
    return runs


def test_every_kernel_decides_as_the_host_kernel_does(kernel_runs):
    if len(kernel_runs) == 1:
        pytest.skip("the CPU runs none of the listed kernels")
    for kernel, got in kernel_runs.items():
        assert _compare(got, kernel_runs[None]) <= VALUE_BOUND, kernel


def test_the_comparison_sees_a_changed_decision_or_value(kernel_runs):
    host = kernel_runs[None]
    assert _compare(host, host) == 0.0

    def moved(edit):
        doc = json.loads(json.dumps(host))
        edit(doc, doc["grid"][0][1])  # the first stratify run, [code, report]
        return doc

    def nudge(doc, strat):
        x = strat[1]["chart"]["X"]["mats"][0]["data"]
        x[0][0] += 1e-11 * max(abs(v) for entry in x for v in entry)

    assert _compare(moved(nudge), host) > VALUE_BOUND
    for edit in (lambda doc, strat: strat[1].update(rank=0),
                 lambda doc, strat: strat[1].update(decomposition_type=[]),
                 lambda doc, strat: strat.__setitem__(0, 3),
                 lambda doc, strat: doc["verify"][1]["suites"][0].update(failures=1)):
        with pytest.raises((AssertionError, KeyError)):
            _compare(moved(edit), host)
