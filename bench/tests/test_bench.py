"""Tests of the benchmark's own logic: naming, the tail rule, self time, the
tracer's rebinding, failure counting and the request sets.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ names


@pytest.mark.parametrize("name", [
    "ops_per_s", "latency_p50_ms", "numkit.joint_diagonalizer.self_s",
    "verify-all", "9lives", "a" * 64,
])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "-x", "a b", "a/b", "lat(ms)", "naïve", "a" * 65, "x\n",
])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == dict(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    names = list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(n) for n in names)


# -------------------------------------------------------------- tail rule


@pytest.mark.parametrize("n", list(range(11, 60)) + [99, 100, 101, 1000, 1225])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    p = stats.tail_percentile(n)
    beyond = n - math.ceil(p * n / 100)
    assert beyond >= stats.TAIL_BEYOND
    # the next whole percentile would leave fewer than ten
    assert n - math.ceil((p + 1) * n / 100) < stats.TAIL_BEYOND


def test_tail_needs_eleven_samples():
    assert stats.tail_percentile(10) is None
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))
    assert stats.tail(list(range(11))) == (9, 0)


def test_tail_value_is_the_sample_at_that_rank():
    values = list(range(100, 0, -1))  # 1..100 in reverse
    p, v = stats.tail(values)
    assert p == 90 and v == 90
    assert sum(1 for x in values if x > v) == 10


# -------------------------------------------------------------- self time


def test_self_time_subtracts_nested_children():
    spans = [
        (0.0, 10.0, -1),  # 0 root
        (1.0, 4.0, 0),    # 1 child of root
        (2.0, 3.0, 1),    # 2 grandchild
        (5.0, 6.0, 0),    # 3 second child of root
        (20.0, 21.0, -1),  # 4 second root
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (3.0, 5.0, 0),    # overlaps the previous child by 1
        (9.0, 12.0, 0),   # runs past the parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_on_a_real_nested_call():
    from commvar import isodecomp
    from commvar.generate import gen_random_commuting

    t = gen_random_commuting(3, 2, 4, "unitary")
    tr = tracing.Tracer()
    tr.install()
    try:
        isodecomp.decomposition_type(t)
    finally:
        assert tr.uninstall() == []
    names = [tr.names[row[0]] for row in tr.spans]
    assert names[:2] == ["isodecomp.decomposition_type", "commodel.joint_diagonalize"]
    m = tracing.layer_metrics(tr, wall_s=1.0)
    assert m["numkit.joint_diagonalizer.calls"] == 1
    assert m["numkit.joint_diagonalizer.pairs"] == 4 * (4 * 3 // 2)  # 2n matrices, s = 4
    assert m["commodel.jd_per_unitary_tuple"] == 1.0
    assert m["commodel.validate_per_unitary_tuple"] == 1.0
    assert m["numkit.joint_diagonalizer.resid_max"] < 1e-10
    total = sum(tracing.self_times([(s, e, p) for _n, s, e, p, _o, _r in tr.spans]))
    root = tr.spans[0]
    assert total == pytest.approx(root[2] - root[1])


# ---------------------------------------------------------------- rebinding


def _bindings():
    """Every attribute of every commvar module and of the workload module,
    the suite table and the traced methods, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "commvar" or name.startswith("commvar.")
                                or mod is workloads):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    from commvar.verify import SUITES

    for suite, fn in SUITES.items():
        snap[("SUITES", suite)] = fn
    for mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(sys.modules[f"commvar.{mod_name}"], cls_name)
        snap[(cls_name, meth)] = cls.__dict__[meth]
    return snap


def test_every_binding_is_the_original_after_a_traced_run():
    before = _bindings()
    w = workloads.WORKLOADS["config-tower"]()
    ops = w.round_ops(5, 0)
    req = workloads.StratifyLarge._op("unitary-near", 6, 11)
    tr = tracing.Tracer(extra_modules=[workloads])
    tr.install()
    try:
        # while installed, every module that imported joint_diagonalize by
        # name holds the wrapper
        import commvar.commodel as commodel

        for mod in ("rankstrata", "realk", "isodecomp", "verify", "commodel"):
            bound = vars(sys.modules[f"commvar.{mod}"])["joint_diagonalize"]
            assert bound is not before[(f"commvar.{mod}", "joint_diagonalize")]
            assert bound is commodel.joint_diagonalize
        for op in ops + [req]:
            op.run()
    finally:
        wrong = tr.uninstall()
    assert wrong == []
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = set(tr.names)
    assert "spectrumops.multiply" in names and "cli.main" in names
    assert tracing.layer_metrics(tr, 1.0)["numkit.joint_diagonalizer.fallbacks"] == 2


def test_bindings_are_restored_when_the_traced_code_raises():
    from commvar.errors import SingularAtOne
    from commvar.rankstrata import cayley_inv

    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        with pytest.raises(SingularAtOne):
            sys.modules["commvar.rankstrata"].cayley_inv(np.eye(2))
    finally:
        assert tr.uninstall() == []
    assert sys.modules["commvar.rankstrata"].cayley_inv is cayley_inv
    assert [(tr.names[row[0]], row[5]) for row in tr.spans] == [("rankstrata.cayley_inv", True)]
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_counts_repeat_exactly():
    ops = [workloads.StratifyLarge._op(kind, 6, 3)
           for kind in ("unitary-simple", "unitary-near", "real-symmetric")]
    runs = []
    for _ in range(2):
        tr = tracing.Tracer(extra_modules=[workloads])
        tr.install()
        try:
            for op in ops:
                op.run()
        finally:
            tr.uninstall()
        m = tracing.layer_metrics(tr, 1.0)
        runs.append({k: m[k] for k in tracing.EXACT})
    assert runs[0] == runs[1]
    assert runs[0]["numkit.joint_diagonalizer.calls"] > 0


# -------------------------------------------------------- failure counting


def test_failed_counts_distinct_ops_and_errors_are_not_ops():
    result = {"attempted": 10, "failed_ops": [2, 5], "failures": ["a", "b"]}
    report = run._report(result, {0: "first op", 5: "again"}, [], {}, {}, {})
    assert report["failed"] == 3 and not report["correct"]
    report = run._report({**result, "failed_ops": [], "failures": []}, {},
                         ["binding not restored: x"], {}, {}, {})
    assert report["failed"] == 0 and not report["correct"]
    assert report["failures"] == ["binding not restored: x"]


def test_worker_counts_an_op_once_however_many_checks_it_fails():
    ops = [workloads.Op("bad", lambda: 1, lambda out: "wrong"),
           workloads.Op("good", lambda: 2, lambda out: None)]
    failures = worker._check(ops, [1, 2])
    result = worker._result(ops, failures, {}, {})
    assert result["failed"] == 1 and result["failed_ops"] == [0]


# ------------------------------------------------------------ request sets


@pytest.mark.parametrize("name", ["stratify-large", "config-tower"])
def test_rounds_have_inputs_of_their_own_and_the_seed_decides_them(name):
    w = workloads.WORKLOADS[name]()
    first, again, second = (w.round_ops(seed, r) for seed, r in ((4, 0), (4, 0), (4, 1)))
    out = [[op.run() for op in ops[:1]] for ops in (first, again, second)]
    assert out[0] == out[1]
    assert out[0] != out[2]
    assert [op.label for op in first] == [op.label for op in second]


def test_verify_all_runs_each_trial_seed_once():
    w = workloads.VerifyAll()
    ops = w.request_set(1, 3)
    assert len(ops) == 3 * len(workloads.SUITES)
    labels = [op.label for op in ops]
    assert len(set(labels)) == len(labels)


def test_round_count_depends_only_on_seconds():
    for w in (cls() for cls in workloads.WORKLOADS.values()):
        assert w.rounds(20) == max(1, round(20 / w.ROUND_S))
        assert w.rounds(0.001) == 1


# ------------------------------------------------------------ machine speed


def test_each_op_is_scaled_by_the_samples_around_it():
    r = speed.REF_S
    refs = [(10.0, r), (20.0, 2 * r), (30.0, 4 * r)]
    ops = [(5.0, 1.0), (15.0, 1.0), (25.0, 3.0), (35.0, 2.0)]
    # before the first sample: that sample; between two: their mean; after
    # the last: the last
    assert speed.scaled(ops, refs) == pytest.approx([1.0, 1 / 1.5, 1.0, 0.5])
    assert speed.speed([r, 3 * r]) == pytest.approx(0.5)
