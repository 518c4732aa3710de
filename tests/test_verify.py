import collections
import inspect
import itertools
import subprocess
import sys

import numpy as np
import pytest

from commvar import (cohomtab, commodel, gammaconf, generate, isodecomp, rankstrata, spectrumops,
                     symuniverse, verify)
from commvar.isodecomp import DecompType, fixed_subspace_dim
from commvar.numkit import Tolerances
from commvar.rng import SplitMix64, subseed
from commvar.verify import (
    SUITES,
    RunConfig,
    _block_generators,
    _field_basis,
    _fixed_dim,
    _partitions,
    run_suite,
)
from isotropy_oracle import fixed_dim_nullspace_oracle


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
    assert RunConfig(trials=verify.MAX_TRIALS).trials == verify.MAX_TRIALS
    with pytest.raises(ValueError):
        RunConfig(trials=verify.MAX_TRIALS + 1)


def test_deterministic_summary():
    a = run_suite("roundtrip", RunConfig(seed=3, trials=2))
    b = run_suite("roundtrip", RunConfig(seed=3, trials=2))
    assert a == b


def test_verify_binds_no_function_or_class_of_another_commvar_module():
    # verify reaches the package through module namespaces (rng and errors
    # apart), so the one binding of each function is on its defining module
    foreign = {name: value.__module__ for name, value in vars(verify).items()
               if (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__.startswith("commvar.")
               and value.__module__ not in ("commvar.verify", "commvar.rng", "commvar.errors")}
    assert not foreign


def test_bad_tolerance_counts_failures():
    cfg = RunConfig(seed=1, trials=2, tol=Tolerances(eps_struct=1e-30))
    out = run_suite("roundtrip", cfg)
    assert out["failures"] > 0


def test_cayley_suite_passes_its_tolerances_to_every_cayley_call(monkeypatch):
    original = rankstrata.cayley
    received = []

    def recorded(x, *args, **kwargs):
        received.append(args[0] if args else kwargs.get("tol"))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(rankstrata, "cayley", recorded)
    cfg = RunConfig(seed=0, trials=1, tol=Tolerances(eps_struct=2e-9))
    out = run_suite("cayley", cfg)
    assert out["failures"] == 0, out["messages"]
    # the two matrix checks and the one stacked chart of the 50 scalar checks;
    # reconstruct_chart adds one call per component of its chart
    assert len(received) >= 3
    assert all(tol is cfg.tol for tol in received)


def test_one_wrong_entry_of_the_stacked_scalar_chart_is_one_failure(monkeypatch):
    original = rankstrata.cayley

    def one_entry_off(x, *args, **kwargs):
        out = original(x, *args, **kwargs)
        if out.shape == (50, 50):  # the stacked chart of the 50 scalar checks
            out[17, 17] += 1e-13
        return out

    monkeypatch.setattr(rankstrata, "cayley", one_entry_off)
    out = run_suite("cayley", RunConfig(seed=0, trials=1))
    assert out["failures"] == 1
    assert [m.split(":")[0] for m in out["messages"]] == ["cayley scalar chart"]


def test_each_failure_is_one_message(monkeypatch):
    # a failed expectation, an out-of-bound residual and a raising trial
    # each add one message, and the failure count is the message count
    monkeypatch.setattr(verify, "SUITES", {})

    @verify._trial_suite("probe", sweep=lambda rec: rec.expect("sweep", False))
    def probe(rng, cfg, rec):
        rec.check("within", 0.5, 1.0)
        rec.check("beyond", 2.0, 1.0)
        raise ValueError("boom")

    out = probe(RunConfig(seed=0, trials=2))
    assert out["failures"] == 5 and out["worst_residual"] == 2.0
    beyond = "beyond: residual 2.000e+00 > 1.000e+00"
    assert out["messages"] == ["sweep: expectation failed", beyond, "trial 0: ValueError: boom",
                               beyond, "trial 1: ValueError: boom"]


def _record_diagonalizations(monkeypatch) -> list:
    """Rebind commodel.joint_diagonalize in every commvar module that holds
    it; the returned list receives each tuple it is called on."""
    original = commodel.joint_diagonalize
    seen = []

    def recorded(t, *args, **kwargs):
        seen.append(t)
        return original(t, *args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "commvar" or mod_name.startswith("commvar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recorded)
    return seen


# trial seeds whose trial diagonalizes one tuple 4 times when each check
# diagonalizes on its own (t_ex in cayley, tu in isotropy)
@pytest.mark.parametrize("name,seed", [("cayley", 0), ("isotropy", 4)],
                         ids=["cayley", "isotropy"])
def test_verify_reuses_diagonalizations(name, seed, monkeypatch):
    seen = _record_diagonalizations(monkeypatch)
    out = run_suite(name, RunConfig(seed=seed, trials=1))
    assert out["failures"] == 0, out["messages"]
    calls = collections.Counter((t.kind, t.mats.shape, t.mats.tobytes()) for t in seen)
    assert calls and max(calls.values()) <= 2


@pytest.mark.parametrize("name", sorted(SUITES))
def test_no_tuple_object_is_diagonalized_twice(name, monkeypatch):
    # the list keeps every tuple alive, so no id is reused within a run
    seen = _record_diagonalizations(monkeypatch)
    for seed in range(5):
        seen.clear()
        out = run_suite(name, RunConfig(seed=seed, trials=2))
        assert out["failures"] == 0, out["messages"]
        counts = collections.Counter(map(id, seen))
        twice = [(t.kind, t.mats.shape) for t in seen if counts[id(t)] > 1]
        assert not twice, (seed, twice)
        assert seen or name == "cohomology"


def _record_outputs(monkeypatch, module, *names) -> dict:
    """Rebind each named function of module; the returned dict lists, per
    name, the values it returned (kept alive, so their ids stay unique)."""
    made = {name: [] for name in names}
    for name in names:
        def recorded(*args, _name=name, _original=getattr(module, name), **kwargs):
            made[_name].append(_original(*args, **kwargs))
            return made[_name][-1]
        monkeypatch.setattr(module, name, recorded)
    return made


def test_a_spectrum_trial_diagonalizes_only_its_tuple_picture_outputs(monkeypatch):
    made = (_record_outputs(monkeypatch, commodel, "config_to_commuting")
            | _record_outputs(monkeypatch, spectrumops, "multiply_tuple",
                              "structure_map_tuple", "unit_map_tuple"))
    seen = _record_diagonalizations(monkeypatch)
    for seed in range(6):
        for values in made.values():
            values.clear()
        seen.clear()
        out = run_suite("spectrum", RunConfig(seed=seed, trials=1))
        assert out["failures"] == 0, out["messages"]
        # the multiply, structure map and unit outputs, once each and in that order
        want = (made["multiply_tuple"] + made["structure_map_tuple"]
                + made["unit_map_tuple"])
        assert len(seen) == len(want) == 3
        assert all(t is w for t, w in zip(seen, want))
        assert made["config_to_commuting"]
        assert not {id(t) for t in made["config_to_commuting"]} & set(map(id, seen))


def test_model_equivariance_reads_its_configuration_blocks(monkeypatch):
    made = _record_outputs(monkeypatch, commodel, "config_to_commuting")
    seen = _record_diagonalizations(monkeypatch)
    for seed in range(6):
        made["config_to_commuting"].clear()
        seen.clear()
        out = run_suite("equivariance", RunConfig(seed=seed, trials=1))
        assert out["failures"] == 0, out["messages"]
        # t = config_to_commuting(c), diagonalized for the charts, then the
        # model-equivariance tuple of sigma . c, which is not
        t, sigma_t = made["config_to_commuting"]
        assert any(x is t for x in seen) and not any(x is sigma_t for x in seen)


def test_equivariance_charts_every_permutation_up_to_n_3_then_generators(monkeypatch):
    # each trial charts t, then (when its rank is positive) the permuted
    # tuples: all n! for n <= 3, else the identity, the transposition (0 1),
    # the n-cycle and the drawn sigma, each once
    made = _record_outputs(monkeypatch, commodel, "config_to_commuting")
    sigmas, charted = [], []
    original_action, original_chart = gammaconf.sigma_action_config, rankstrata.subquotient_chart

    def action(sigma, *args, **kwargs):
        sigmas.append(sigma)
        return original_action(sigma, *args, **kwargs)

    def chart(t, *args, **kwargs):
        charted.append((t, original_chart(t, *args, **kwargs)))
        return charted[-1][1]

    monkeypatch.setattr(gammaconf, "sigma_action_config", action)
    monkeypatch.setattr(rankstrata, "subquotient_chart", chart)
    sizes = set()
    for seed in range(24):
        for recorded in (made["config_to_commuting"], sigmas, charted):
            recorded.clear()
        out = run_suite("equivariance", RunConfig(seed=seed, trials=1, n_max=6, D_max=1))
        assert out["failures"] == 0, out["messages"]
        t, (sigma,) = made["config_to_commuting"][0], sigmas
        n = t.ambient.n
        cycles = [tuple(range(n)), (1, 0, *range(2, n)), (*range(1, n), 0), tuple(sigma)]
        want = list(itertools.permutations(range(n))) if n <= 3 else list(dict.fromkeys(cycles))
        assert charted[0][0] is t
        if not charted[0][1].s:
            assert len(charted) == 1
            continue
        assert len(charted) == len(want)
        for (got, _), perm in zip(charted[1:], want[1:]):
            assert np.array_equal(got.mats, commodel.sigma_action_tuple(list(perm), t).mats)
        sizes.add((n > 3, len(want)))
    assert {big for big, _ in sizes} == {False, True}
    assert {count for big, count in sizes if big} <= {3, 4}


@pytest.mark.parametrize("name", ["spectrum", "equivariance", "cayley"])
def test_suites_draw_their_sizes_inside_the_caps(name, monkeypatch):
    sizes = []

    def record(module, name_, size_of):
        original = getattr(module, name_)
        monkeypatch.setattr(module, name_, lambda *a, **k: sizes.append(size_of(*a)) or
                            original(*a, **k))

    record(generate, "gen_random_config", lambda seed, universe, *a: (universe.n,))
    record(generate, "gen_random_commuting", lambda seed, n, s, *a: (n, s))
    record(symuniverse, "psi_embed", lambda u, v, *a: (u.n, v.n))
    for seed in range(8):
        out = run_suite(name, RunConfig(seed=seed, trials=2, n_max=1, s_max=1, D_max=1))
        assert out["failures"] == 0, out["messages"]
    assert sizes and all(size == 1 for sizes_ in sizes for size in sizes_), sorted(set(sizes))


@pytest.mark.parametrize("field", ["complex", "real"])
def test_each_isotropy_system_gives_the_formula_dimension(field):
    for s in range(1, 8):
        for parts in _partitions(s):
            assert _fixed_dim(parts, field) == fixed_subspace_dim(DecompType(parts), 1, field)


def test_isotropy_sweep_solves_each_system_once(monkeypatch):
    original = verify._fixed_dim
    calls, streams = [], []

    def counted(parts, field):
        dim = original(parts, field)
        calls.append((parts, field, dim))
        return dim

    class Stream(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(seed)

    monkeypatch.setattr(verify, "_fixed_dim", counted)
    monkeypatch.setattr(verify, "SplitMix64", Stream)
    out = run_suite("isotropy", RunConfig(seed=0, trials=1))
    assert out["failures"] == 0, out["messages"]
    # 18 partitions of s = 1..5, two fields, one matrix each
    assert len(calls) == 36
    assert len({(parts, field) for parts, field, _ in calls}) == 36
    assert all(dim == fixed_subspace_dim(DecompType(parts), 1, field)
               for parts, field, dim in calls)
    # the one trial builds the only stream: the sweep draws nothing
    assert streams == [subseed(0, 0)]


def test_isotropy_sweep_reports_each_wrong_formula_value(monkeypatch):
    formula = isodecomp.fixed_subspace_dim
    monkeypatch.setattr(isodecomp, "fixed_subspace_dim",
                        lambda d, n, field: formula(d, n, field) + (d.parts == (2, 1)))
    out = run_suite("isotropy", RunConfig(seed=0, trials=1))
    assert out["failures"] == 6
    assert sorted(out["messages"]) == sorted(
        f"fixed dim (2, 1) n={n} {field}: expectation failed"
        for n in (1, 2, 3) for field in ("complex", "real"))


def test_isotropy_oracle_is_solved_once_per_process():
    configs = [RunConfig(seed=0, trials=1), RunConfig(seed=3, trials=1),
               RunConfig(seed=7, trials=2, n_max=1, s_max=1, D_max=1)]
    cold = []
    for cfg in configs:
        verify._fixed_dim.cache_clear()
        cold.append(run_suite("isotropy", cfg))
        # 18 partitions of s = 1..5, two fields
        assert verify._fixed_dim.cache_info().misses == 36
    # each warm run reads the 36 counts back and solves none
    for k, (cfg, want) in enumerate(zip(configs, cold), start=1):
        assert run_suite("isotropy", cfg) == want
        info = verify._fixed_dim.cache_info()
        assert (info.hits, info.misses) == (36 * k, 36)


def test_a_warm_isotropy_oracle_still_reports_each_wrong_formula_value(monkeypatch):
    run_suite("isotropy", RunConfig(seed=0, trials=1))
    misses = verify._fixed_dim.cache_info().misses
    # the cache holds the oracle side only: the formula is read on every run
    test_isotropy_sweep_reports_each_wrong_formula_value(monkeypatch)
    assert verify._fixed_dim.cache_info().misses == misses


def test_importing_the_cli_solves_no_isotropy_system():
    code = ("import commvar.cli, commvar.verify; "
            "print(commvar.verify._fixed_dim.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("seed", [0, 5])
def test_nullspace_oracle_is_n_fold(field, seed):
    for s in range(1, 6):
        for parts in _partitions(s):
            one = fixed_dim_nullspace_oracle(parts, 1, field, seed)
            for n in (2, 3):
                assert fixed_dim_nullspace_oracle(parts, n, field, seed) == n * one


def _loop_basis(s, field):
    """The basis built one unit at a time: diagonal units, then per pair
    a < b the symmetric unit, or the antisymmetric real and symmetric
    imaginary units for the complex field."""
    dtype = complex if field == "complex" else float
    diag_unit = 1j if field == "complex" else 1.0
    out = []
    for a in range(s):
        e = np.zeros((s, s), dtype=dtype)
        e[a, a] = diag_unit
        out.append(e)
    for a in range(s):
        for b in range(a + 1, s):
            pair = [(1.0, -1.0), (1j, 1j)] if field == "complex" else [(1.0, 1.0)]
            for upper, lower in pair:
                e = np.zeros((s, s), dtype=dtype)
                e[a, b], e[b, a] = upper, lower
                out.append(e)
    return np.array(out)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("s", range(1, 7))
def test_field_basis_matches_the_loop_construction(s, field):
    got = _field_basis(s, field)
    want = _loop_basis(s, field)
    assert got.shape == want.shape == (s * s if field == "complex" else s * (s + 1) // 2, s, s)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _block_mask(parts):
    """Entries inside the diagonal blocks, marked one block at a time."""
    s = sum(parts)
    mask = np.zeros((s, s), dtype=bool)
    off = 0
    for p in parts:
        mask[off:off + p, off:off + p] = True
        off += p
    return mask


@pytest.mark.parametrize("s", range(1, 7))
def test_block_generators_are_signed_permutations_fixing_only_block_scalars(s):
    basis = _loop_basis(s, "real")
    for parts in _partitions(s):
        g = _block_generators(parts, float)
        assert g.dtype == float and np.all(g[:, ~_block_mask(parts)] == 0)
        # one entry +-1 in each row and each column
        assert np.all(np.isin(g, (-1.0, 0.0, 1.0)))
        assert np.all((g != 0).sum(axis=1) == 1) and np.all((g != 0).sum(axis=2) == 1)
        # h x h^T - x, one generator and one basis element at a time
        defects = np.concatenate([np.stack([(h @ x @ h.T - x).ravel() for x in basis], axis=1)
                                  for h in g])
        assert len(basis) - np.linalg.matrix_rank(defects) == len(parts)


def test_all_suites_pass_at_matrix_size_cap_one():
    summary = run_suite("all", RunConfig(trials=3, n_max=1, s_max=1, D_max=1))
    assert summary["failures"] == 0, summary


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("seed", range(5))
def test_nullspace_oracle_matches_the_formula_one_size_above_the_sweep(field, seed):
    for s in range(1, 7):
        for parts in _partitions(s):
            for n in (1, 2):
                assert (fixed_dim_nullspace_oracle(parts, n, field, seed)
                        == fixed_subspace_dim(DecompType(parts), n, field))


@pytest.mark.parametrize("field", ["complex", "real"])
def test_nullspace_oracle_of_the_empty_partition_is_zero(field):
    assert fixed_dim_nullspace_oracle((), 1, field) == 0


def test_equivariance_diagonalizes_each_tuple_once_over_trial_seeds(monkeypatch):
    # the tuple-action check compares entries, so it diagonalizes nothing
    seen = _record_diagonalizations(monkeypatch)
    for seed in range(21):
        out = run_suite("equivariance", RunConfig(seed=seed, trials=1))
        assert out["failures"] == 0, out["messages"]
    contents = collections.Counter((t.kind, t.mats.shape, t.mats.tobytes()) for t in seen)
    assert len(seen) == 56
    assert max(contents.values()) == 1


def test_tuple_action_composition_catches_an_entry_error(monkeypatch):
    # the action only moves entries, so a 1e-12 change to each entry breaks
    # the exact composition law; a class distance at 1e-8 would not see it
    original = commodel.sigma_action_tuple
    monkeypatch.setattr(commodel, "sigma_action_tuple", lambda sigma, t: commodel.CommutingTuple(
        t.kind, original(sigma, t).mats + 1e-12, t.ambient))
    out = run_suite("equivariance", RunConfig(seed=0, trials=3))
    assert out["failures"] == 3
    assert out["messages"] == ["tuple action composition: expectation failed"] * 3


def test_a_residual_above_its_bound_is_reported(monkeypatch):
    original = rankstrata.cayley_inv
    monkeypatch.setattr(rankstrata, "cayley_inv", lambda a, tol: original(a, tol) + 1e-6)
    out = run_suite("cayley", RunConfig(seed=0, trials=1))
    assert "cayley round trip: residual 3.000e-06 > 1.000e-10" in out["messages"]
    assert out["worst_residual"] >= 3e-6


def test_a_missing_singular_raise_is_reported(monkeypatch):
    monkeypatch.setattr(rankstrata, "cayley_inv", lambda a, tol: np.zeros_like(a))
    out = run_suite("cayley", RunConfig(seed=0, trials=1))
    assert "cayley_inv singular detection: expectation failed" in out["messages"]


def test_a_missing_not_odd_prime_raise_is_reported(monkeypatch):
    original = cohomtab.poincare_poly
    monkeypatch.setattr(cohomtab, "poincare_poly",
                        lambda p: cohomtab.PoincareTable(((0, 1),)) if p == 4 else original(p))
    out = run_suite("cohomology", RunConfig(seed=0, trials=1))
    assert out["messages"] == ["NotOddPrime 4: expectation failed"]


@pytest.mark.parametrize("field", ["complex", "real"])
def test_field_basis_is_built_once_and_read_only(field):
    basis = _field_basis(3, field)
    assert _field_basis(3, field) is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 0
