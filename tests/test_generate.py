import numpy as np
import pytest

from commvar.gammaconf import config_distance, rank
from commvar.generate import (
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
)
from commvar.numkit import (
    commutator_defect,
    fro,
    skew_hermitian_defect,
    real_symmetric_defect,
    unitary_defect,
)
from commvar.rng import MASK64, SplitMix64, haar_orthogonal, haar_unitary, subseed
from commvar.symuniverse import UniverseBasis


def test_splitmix_reference_sequence():
    # SplitMix64 with the documented constants, seed 0
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == first
    assert 0 <= first <= MASK64
    vals = {SplitMix64(s).next_u64() for s in range(64)}
    assert len(vals) == 64  # no collisions across nearby seeds


def test_subseed_independent():
    seeds = {subseed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert subseed(5, 3) == subseed(5, 3)
    assert subseed(5, 3) != subseed(6, 3)


def test_haar_matrices():
    rng = SplitMix64(2)
    u = haar_unitary(rng, 5)
    assert fro(u.conj().T @ u - np.eye(5)) < 1e-12
    o = haar_orthogonal(rng, 5)
    assert o.dtype.kind == "f"
    assert fro(o.T @ o - np.eye(5)) < 1e-12


@pytest.mark.parametrize("kind,defect", [
    ("unitary", unitary_defect),
    ("skew_hermitian", skew_hermitian_defect),
    ("real_symmetric", real_symmetric_defect),
])
def test_gen_random_commuting(kind, defect):
    t = gen_random_commuting(11, 3, 4, kind)
    assert t.n == 3 and t.s == 4
    assert commutator_defect(t.mats) <= 1e-12
    assert max(defect(m) for m in t.mats) <= 1e-12
    # determinism
    t2 = gen_random_commuting(11, 3, 4, kind)
    assert max(fro(a - b) for a, b in zip(t.mats, t2.mats)) == 0.0
    t3 = gen_random_commuting(12, 3, 4, kind)
    assert max(fro(a - b) for a, b in zip(t.mats, t3.mats)) > 1e-3


def test_gen_partition_tuple_traceless_unit():
    t = gen_partition_tuple(3, 2, (2, 2, 1), kind="skew_hermitian",
                            traceless=True, unit=True)
    assert abs(np.sqrt(sum(fro(m) ** 2 for m in t.mats)) - 1.0) <= 1e-12
    assert max(abs(np.trace(m)) for m in t.mats) <= 1e-12
    assert commutator_defect(t.mats) <= 1e-12


def test_gen_random_config_canonical():
    u = UniverseBasis(3, 1)
    c = gen_random_config(7, u, max_labels=3, max_rank=4)
    assert 1 <= rank(c) <= 4
    from commvar.gammaconf import canonicalize

    assert config_distance(canonicalize(c), c) < 1e-13
    c2 = gen_random_config(7, u, max_labels=3, max_rank=4)
    assert config_distance(c, c2) < 1e-15


def test_gen_exact_rank():
    t = gen_exact_rank_tuple(5, 2, 4, 7)
    from commvar.rankstrata import stratum_rank

    assert t.s == 7
    assert stratum_rank(t) == 4


@pytest.mark.parametrize("kind,dtype", [
    ("unitary", complex), ("skew_hermitian", complex), ("real_symmetric", float),
])
def test_empty_tuples_keep_shape_and_dtype(kind, dtype):
    # n = 0 is a legitimate tuple: every builder returns an empty (0, s, s) stack
    built = [gen_random_commuting(4, 0, 3, kind), gen_partition_tuple(4, 0, (2, 1), kind)]
    if kind == "unitary":
        built.append(gen_exact_rank_tuple(4, 0, 2, 3))
    for t in built:
        assert t.mats.shape == (0, 3, 3)
        assert t.mats.dtype == dtype
