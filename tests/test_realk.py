import numpy as np
import pytest

from commvar.commodel import CommutingTuple, class_distance, config_to_commuting
from commvar.errors import NotRealizable, NotSkewHermitian, NotSymmetric, SingularAtOne
from commvar.gammaconf import Configuration, Label, SpherePoint, canonicalize
from commvar.generate import gen_random_commuting
from commvar.numkit import Tolerances, commutator_defect, fro, off_norm
from commvar.realk import (
    is_symmetric_unitary,
    joint_diagonalize_real,
    real_cayley,
    real_cayley_inv,
    real_stratum_chart,
)
from commvar.rankstrata import (
    SubquotientChart,
    reassemble_trace,
    reconstruct_chart,
    subquotient_chart,
    trace_split,
)
from commvar.rng import SplitMix64, haar_orthogonal, unit_phase
from commvar.symuniverse import UniverseBasis


def test_real_cayley_examples():
    assert fro(real_cayley(np.zeros((2, 2))) + np.eye(2)) < 1e-14
    assert real_cayley(np.array([[1.0]]))[0, 0] == pytest.approx(1j)
    with pytest.raises(NotSymmetric):
        real_cayley(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_real_cayley_takes_the_callers_tolerance():
    # symmetric defect 2.8e-6: above the default eps_struct, below 1e-5
    x = np.diag([1.0, -1.0]) + 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotSymmetric):
        real_cayley(x)
    loose = Tolerances(eps_struct=1e-5, eps_cluster=1e-5)
    a = real_cayley(x, loose)
    assert fro(a.conj().T @ a - np.eye(2)) <= 1e-5
    xt = CommutingTuple("real_symmetric", x[None])
    chart = SubquotientChart(2, xt, np.eye(2), xt, np.zeros(1))
    with pytest.raises(NotSkewHermitian):
        reconstruct_chart(chart, 2)
    assert fro(reconstruct_chart(chart, 2, loose).mats[0] - a) == 0.0


@pytest.mark.parametrize("s", [1, 3, 6])
def test_real_cayley_image_and_inverse(s):
    x = gen_random_commuting(s + 40, 1, s, "real_symmetric").mats[0]
    a = real_cayley(x)
    assert fro(a.conj().T @ a - np.eye(s)) <= 1e-10
    assert fro(a - a.T) <= 1e-10  # complex symmetric
    assert is_symmetric_unitary(a)
    assert fro(real_cayley_inv(a) - x) <= 1e-10
    rng = SplitMix64(s)
    o = haar_orthogonal(rng, s)
    assert fro(real_cayley(o @ x @ o.T) - o @ a @ o.T) <= 1e-10


@pytest.mark.parametrize("a", [2.0 * np.eye(2), np.diag([1.0, 2.0]), np.zeros((3, 3)),
                               np.array([[0.0, 1.0], [-1.0, 0.0]])],
                         ids=["2 Id", "diag(1, 2)", "3x3 zero", "unitary, not symmetric"])
def test_is_symmetric_unitary_needs_both_properties(a):
    assert not is_symmetric_unitary(a)


def test_real_cayley_inv_errors():
    with pytest.raises(SingularAtOne):
        real_cayley_inv(np.eye(2, dtype=complex))
    # a unitary that is not complex symmetric inverts to a non-real matrix
    rng = SplitMix64(77)
    from commvar.rng import haar_unitary

    u = haar_unitary(rng, 3)
    d = u @ np.diag([-1.0, 1j, -1j]) @ u.conj().T
    if fro(d - d.T) > 1e-6:
        with pytest.raises(NotRealizable):
            real_cayley_inv(d)


def test_joint_diagonalize_real_diagonal_input():
    t = CommutingTuple("real_symmetric", np.array([np.diag([3.0, 1.0, 2.0])]))
    q, blocks = joint_diagonalize_real(t)
    assert abs(np.linalg.det(q) - 1.0) <= 1e-10
    assert fro(np.abs(q) - np.eye(3)) < 1e-10  # signed permutation
    assert sorted(b.frame.shape[1] for b in blocks) == [1, 1, 1]


@pytest.mark.parametrize("seed", range(6))
def test_joint_diagonalize_real_recovery(seed):
    rng = SplitMix64(seed)
    s = rng.randint(2, 7)
    n = rng.randint(1, 4)
    t = gen_random_commuting(rng.next_u64(), n, s, "real_symmetric")
    q, _ = joint_diagonalize_real(t)
    assert q.dtype.kind == "f"
    assert abs(np.linalg.det(q) - 1.0) <= 1e-10
    diag = q.T @ t.mats @ q
    res = np.sqrt(sum(off_norm(d) ** 2 for d in diag))
    assert res <= 1e-8 * max(fro(m) for m in t.mats)


def test_real_trace_split():
    t = gen_random_commuting(9, 2, 4, "real_symmetric")
    bar, tau = trace_split(t)
    assert max(abs(np.trace(m)) for m in bar.mats) <= 1e-12
    back = reassemble_trace(bar, tau)
    assert max(fro(a - b) for a, b in zip(back.mats, t.mats)) <= 1e-12
    ident = CommutingTuple("real_symmetric", np.array([np.eye(3)]))
    bar2, tau2 = trace_split(ident)
    assert fro(bar2.mats[0]) < 1e-14
    assert tau2[0] == pytest.approx(1.0)


def _real_config(seed, n=2, dims=(1, 2)):
    universe = UniverseBasis(n, 1)
    rng = SplitMix64(seed)
    basis = haar_orthogonal(rng, universe.dim)
    labels = []
    offset = 0
    pts = []
    for d in dims:
        for _ in range(100):
            p = SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])
            if all(np.max(np.abs(p.coords - q.coords)) >= 0.3 for q in pts):
                break
        pts.append(p)
        labels.append(Label(basis[:, offset:offset + d].astype(complex), p))
        offset += d
    return canonicalize(Configuration(universe, labels))


def test_real_configurations_complexify_to_symmetric_tuples():
    c = _real_config(3)
    t = config_to_commuting(c)
    assert all(is_symmetric_unitary(m) for m in t.mats)


def test_real_stratum_chart_scalar_example():
    t = CommutingTuple("unitary", np.array([np.diag([-1.0, 1.0])]))
    chart = real_stratum_chart(t)
    assert chart.s == 1
    assert chart.X.kind == "real_symmetric"
    assert abs(chart.X.mats[0][0, 0]) < 1e-12
    assert abs(abs(chart.f[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_real_chart_round_trip(seed):
    c = _real_config(seed + 10)
    t = config_to_commuting(c)
    chart = real_stratum_chart(t)
    assert chart.X.kind == "real_symmetric"
    assert chart.f.dtype.kind == "f"
    assert commutator_defect(chart.X.mats) <= 1e-9
    rec = reconstruct_chart(chart, t.s)
    assert class_distance(rec, t) <= 1e-8


def test_real_chart_rejects_generic_complex():
    t = gen_random_commuting(31, 2, 3, "unitary")
    with pytest.raises(NotRealizable):
        real_stratum_chart(t)


@pytest.mark.parametrize("seed", range(3))
def test_real_chart_complexifies_to_complex_chart(seed):
    c = _real_config(seed + 20)
    t = config_to_commuting(c)
    real_chart = real_stratum_chart(t)
    complex_chart = subquotient_chart(t)
    assert real_chart.s == complex_chart.s
    g = complex_chart.f.conj().T @ real_chart.f.astype(complex)
    assert fro(g.conj().T @ g - np.eye(real_chart.s)) <= 1e-10
    for i in range(t.n):
        lhs = 1j * real_chart.X.mats[i]
        rhs = g.conj().T @ complex_chart.X.mats[i] @ g
        assert fro(lhs - rhs) <= 1e-8


def test_rank_one_diagonal_family_parametrization():
    # rotations of diagonal traceless unit pairs give valid unit tuples
    rng = SplitMix64(55)
    for _ in range(20):
        theta = rng.uniform() * 2 * np.pi
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        d = rng.normals(3, 2)
        d -= d.mean(axis=1, keepdims=True)
        nrm = np.sqrt(np.sum(d ** 2))
        if nrm < 1e-9:
            continue
        d /= nrm
        mats = np.array([rot @ np.diag(row) @ rot.T for row in d])
        t = CommutingTuple("real_symmetric", mats)
        t.validate()
        assert abs(np.sqrt(sum(fro(m) ** 2 for m in mats)) - 1.0) <= 1e-12
        assert max(abs(np.trace(m)) for m in mats) <= 1e-12
