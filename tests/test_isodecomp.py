import numpy as np
import pytest

from commvar.commodel import CommutingTuple
from commvar.errors import ZeroTuple
from commvar.generate import gen_partition_tuple, gen_random_commuting
from commvar.isodecomp import (
    DecompType,
    canonical_flag_class,
    decomposition_type,
    fixed_subspace_dim,
    flag_map,
    flag_map_preimage,
    is_complete_type,
    tuple_norm,
    unit_normalize,
)
from commvar.numkit import fro
from commvar.rankstrata import stabilize
from commvar.rng import SplitMix64, haar_unitary
from isotropy_oracle import fixed_dim_nullspace_oracle
from commvar.commodel import joint_diagonalize
from commvar.errors import ShapeMismatch


def test_decomp_type_normalizes():
    d = DecompType((1, 3, 2))
    assert d.parts == (3, 2, 1)
    assert d.s == 6 and d.k == 3
    with pytest.raises(ValueError):
        DecompType(())
    with pytest.raises(ValueError):
        DecompType((2, 0))


def test_decomposition_type_examples():
    zero = CommutingTuple("skew_hermitian", np.zeros((1, 3, 3), dtype=complex))
    assert decomposition_type(zero).parts == (3,)
    two = CommutingTuple("skew_hermitian", np.array([np.diag([0.7j, -0.7j])]))
    assert decomposition_type(two).parts == (1, 1)
    # generic tuples have simple joint spectrum
    gen = gen_random_commuting(5, 2, 4, "skew_hermitian", min_separation=0.1)
    assert decomposition_type(gen).parts == (1, 1, 1, 1)


@pytest.mark.parametrize("parts", [(2,), (1, 1), (2, 1), (3, 2), (2, 2, 1)])
def test_prescribed_partitions_recovered(parts):
    for seed in range(3):
        t = gen_partition_tuple(seed, 2, parts, kind="skew_hermitian")
        assert decomposition_type(t).parts == tuple(sorted(parts, reverse=True))
        tr = gen_partition_tuple(seed, 2, parts, kind="real_symmetric")
        assert decomposition_type(tr).parts == tuple(sorted(parts, reverse=True))


def test_is_complete_type():
    assert not is_complete_type(DecompType((4,)))
    assert is_complete_type(DecompType((1, 1, 1)))
    assert is_complete_type(DecompType((2, 1)))


def test_fixed_subspace_dim_formula():
    assert fixed_subspace_dim(DecompType((3,)), 2) == 0
    assert fixed_subspace_dim(DecompType((1, 1)), 3) == 3
    assert fixed_subspace_dim(DecompType((2, 1, 1)), 2) == 4
    assert fixed_subspace_dim(DecompType((2, 1)), 2, "real") == 2
    with pytest.raises(ValueError):
        fixed_subspace_dim(DecompType((2, 1)), 0)
    with pytest.raises(ValueError):
        fixed_subspace_dim(DecompType((2, 1)), 1, "quaternionic")


@pytest.mark.parametrize("parts", [(2,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)])
@pytest.mark.parametrize("field", ["complex", "real"])
def test_fixed_dim_against_nullspace(parts, field):
    d = DecompType(parts)
    for n in (1, 2):
        assert fixed_subspace_dim(d, n, field) == \
            fixed_dim_nullspace_oracle(parts, n, field, seed=3)


def test_unit_normalize():
    t = gen_partition_tuple(7, 2, (2, 1), kind="skew_hermitian", traceless=True)
    u = unit_normalize(t)
    assert abs(tuple_norm(u) - 1.0) <= 1e-12
    again = unit_normalize(CommutingTuple(u.kind, 7.0 * u.mats))
    assert max(fro(a - b) for a, b in zip(again.mats, u.mats)) <= 1e-12
    assert decomposition_type(again).parts == decomposition_type(u).parts
    with pytest.raises(ZeroTuple):
        unit_normalize(CommutingTuple("skew_hermitian", np.zeros((1, 2, 2), dtype=complex)))


def test_unit_tuples_have_complete_type():
    for seed in range(5):
        for parts in [(1, 1), (2, 1), (2, 2), (1, 1, 1)]:
            t = gen_partition_tuple(seed, 2, parts, kind="skew_hermitian",
                                    traceless=True, unit=True)
            assert is_complete_type(decomposition_type(t))


def test_type_invariances():
    t = gen_partition_tuple(3, 2, (2, 1), kind="skew_hermitian", traceless=True,
                            unit=True)
    rng = SplitMix64(9)
    u = haar_unitary(rng, 3)
    conj = CommutingTuple("skew_hermitian",
                          np.array([u @ m @ u.conj().T for m in t.mats]))
    assert decomposition_type(conj).parts == decomposition_type(t).parts
    assert decomposition_type(stabilize(t, 2)).parts == decomposition_type(t).parts


def _diag_unit(sign=1.0):
    a = 1.0 / np.sqrt(2.0)
    return CommutingTuple("skew_hermitian",
                          np.array([np.diag([sign * 1j * a, -sign * 1j * a])]))


def test_flag_map_identity_and_invariances():
    x = _diag_unit()
    same = flag_map(np.eye(2, dtype=complex), x)
    assert max(fro(a - b) for a, b in zip(same.mats, x.mats)) <= 1e-14
    rng = SplitMix64(4)
    g = haar_unitary(rng, 2)
    t = flag_map(g, x)
    assert abs(tuple_norm(t) - 1.0) <= 1e-12
    assert decomposition_type(t).parts == (1, 1)
    # right multiplication by a diagonal torus element changes nothing
    torus = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    t2 = flag_map(g @ torus, x)
    assert max(fro(a - b) for a, b in zip(t.mats, t2.mats)) <= 1e-12
    # permuting g's columns together with the diagonals changes nothing
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x_sw = CommutingTuple("skew_hermitian",
                          np.array([swap @ m @ swap for m in x.mats]))
    t3 = flag_map(g @ swap, x_sw)
    assert max(fro(a - b) for a, b in zip(t.mats, t3.mats)) <= 1e-12


def test_flag_map_validates_input():
    from commvar.errors import ShapeMismatch

    x = _diag_unit()
    with pytest.raises(ShapeMismatch):
        flag_map(np.eye(3, dtype=complex), x)  # size mismatch
    off_diag = CommutingTuple("skew_hermitian",
                              np.array([[[0.0, 1.0], [-1.0, 0.0]]]) * 1j)
    with pytest.raises(ValueError):
        flag_map(np.eye(2, dtype=complex), off_diag)
    not_unit = CommutingTuple("skew_hermitian", np.array([np.diag([2j, -2j])]))
    with pytest.raises(ValueError):
        flag_map(np.eye(2, dtype=complex), not_unit)


@pytest.mark.parametrize("seed", range(20))
def test_flag_preimage_unique_p2(seed):
    rng = SplitMix64(seed + 300)
    g = haar_unitary(rng, 2)
    x = _diag_unit(1.0 if rng.uniform() < 0.5 else -1.0)
    target = flag_map(g, x)
    gc, xc = flag_map_preimage(target)
    rebuilt = flag_map(gc, xc)
    assert max(fro(a - b) for a, b in zip(rebuilt.mats, target.mats)) <= 1e-8
    # both sign/permutation-twisted preimages canonicalize identically
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g1, x1 = canonical_flag_class(g, x)
    g2, x2 = canonical_flag_class(
        g @ swap,
        CommutingTuple("skew_hermitian", np.array([swap @ m @ swap for m in x.mats])))
    assert fro(g1 - g2) <= 1e-10
    assert max(fro(a - b) for a, b in zip(x1.mats, x2.mats)) <= 1e-12
    # and they agree with the recovered class up to the same canonicalization
    assert fro(np.abs(g1) - np.abs(gc)) <= 1e-8
    assert max(fro(a - b) for a, b in zip(x1.mats, xc.mats)) <= 1e-8


def test_canonical_flag_class_of_empty_tuple():
    g = haar_unitary(SplitMix64(5), 3)
    x = CommutingTuple("skew_hermitian", np.zeros((0, 3, 3), dtype=complex))
    g_can, x_can = canonical_flag_class(g, x)
    assert x_can.mats.shape == (0, 3, 3)
    # no coordinates to sort by: the column order stays, only phases change
    assert np.allclose(np.abs(g_can), np.abs(g), atol=1e-15)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
@pytest.mark.parametrize("n", [0, 2])
def test_zero_size_tuples_have_no_decomposition_type(kind, n):
    # the empty partition is not a DecompType, so s = 0 is a documented
    # ShapeMismatch rather than DecompType's ValueError
    t = CommutingTuple(kind, np.zeros((n, 0, 0)))
    with pytest.raises(ShapeMismatch, match="an s = 0 tuple has no decomposition type"):
        decomposition_type(t)
    with pytest.raises(ShapeMismatch):
        decomposition_type(t, spectrum=joint_diagonalize(t))


@pytest.mark.parametrize("n", [0, 1])
def test_flag_preimage_of_a_zero_size_tuple_has_no_type(n):
    # the s = 0 case meets decomposition_type's error, not numpy's from an empty hstack
    with pytest.raises(ShapeMismatch, match="an s = 0 tuple has no decomposition type"):
        flag_map_preimage(CommutingTuple("skew_hermitian", np.zeros((n, 0, 0))))
    with pytest.raises(ValueError, match="simple joint spectrum"):
        flag_map_preimage(gen_partition_tuple(2, 2, (2, 1), unit=True, traceless=True))
