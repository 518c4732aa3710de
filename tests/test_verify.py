import collections
import sys

import pytest

from commvar import commodel
from commvar.numkit import Tolerances
from commvar.verify import SUITES, RunConfig, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    out = run_suite(name, RunConfig(seed=7, trials=3))
    assert out["failures"] == 0, out["messages"]
    assert set(out) >= {"suite", "trials", "failures", "worst_residual"}
    assert out["suite"] == name


def test_all_aggregates():
    out = run_suite("all", RunConfig(seed=2, trials=2))
    assert out["failures"] == 0
    assert len(out["suites"]) == len(SUITES)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("bogus", RunConfig())


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(n_max=0)


def test_deterministic_summary():
    a = run_suite("roundtrip", RunConfig(seed=3, trials=2))
    b = run_suite("roundtrip", RunConfig(seed=3, trials=2))
    assert a == b


def test_bad_tolerance_counts_failures():
    cfg = RunConfig(seed=1, trials=2, tol=Tolerances(eps_struct=1e-30))
    out = run_suite("roundtrip", cfg)
    assert out["failures"] > 0


# trial seeds whose trial diagonalizes one tuple 4 times when each check
# diagonalizes on its own (t_ex in cayley, tu in isotropy)
@pytest.mark.parametrize("name,seed", [("cayley", 0), ("isotropy", 4)],
                         ids=["cayley", "isotropy"])
def test_verify_reuses_diagonalizations(name, seed, monkeypatch):
    original = commodel.joint_diagonalize
    calls = collections.Counter()

    def counted(t, *args, **kwargs):
        calls[t.kind, t.mats.shape, t.mats.tobytes()] += 1
        return original(t, *args, **kwargs)

    # rebind the name in every module that imported it
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "commvar" or mod_name.startswith("commvar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    out = run_suite(name, RunConfig(seed=seed, trials=1))
    assert out["failures"] == 0, out["messages"]
    assert calls and max(calls.values()) <= 2
