import numpy as np
import pytest

from commvar.commodel import CommutingTuple, F_subspace, class_distance, identity_tuple
from commvar.errors import NotSkewHermitian, SingularAtOne, WrongStratum
from commvar.gammaconf import Configuration, Label, SpherePoint, canonicalize, sphere_coord
from commvar.commodel import config_to_commuting
from commvar.generate import gen_exact_rank_tuple, gen_random_commuting
from commvar.numkit import Tolerances, commutator_defect, fro
from commvar.rankstrata import (
    SubquotientChart,
    cayley,
    cayley_inv,
    pairing_chart,
    reassemble_trace,
    reconstruct_chart,
    stabilize,
    stratum_rank,
    subquotient_chart,
    trace_split,
)
from commvar.realk import real_stratum_chart
from commvar.rng import SplitMix64, haar_unitary
from commvar.symuniverse import UniverseBasis
from commvar.generate import gen_partition_tuple


def test_cayley_zero_and_scalar():
    assert fro(cayley(np.zeros((3, 3))) + np.eye(3)) < 1e-14
    assert cayley(np.array([[1j]]))[0, 0] == pytest.approx(1j)


def test_cayley_rejects_non_skew():
    with pytest.raises(NotSkewHermitian):
        cayley(np.eye(2))


def test_cayley_takes_the_callers_tolerance():
    # skew-Hermitian defect 2.8e-6: above the default eps_struct, below 1e-5
    x = np.diag([1j, -1j]) + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotSkewHermitian):
        cayley(x)
    loose = Tolerances(eps_struct=1e-5, eps_cluster=1e-5)
    a = cayley(x, loose)
    assert fro(a.conj().T @ a - np.eye(2)) <= 1e-5
    xt = CommutingTuple("skew_hermitian", x[None])
    chart = SubquotientChart(2, xt, np.eye(2), xt, np.zeros(1))
    with pytest.raises(NotSkewHermitian):
        reconstruct_chart(chart, 2)
    assert fro(reconstruct_chart(chart, 2, loose).mats[0] - a) == 0.0


def test_cayley_matches_sphere_coord():
    for t in np.linspace(-20.0, 20.0, 50):
        assert abs(cayley(np.array([[1j * t]]))[0, 0] - sphere_coord(t)) <= 1e-14


def test_cayley_inv_examples():
    assert fro(cayley_inv(-np.eye(3, dtype=complex))) < 1e-14
    with pytest.raises(SingularAtOne):
        cayley_inv(np.eye(3, dtype=complex))


@pytest.mark.parametrize("seed,s", [(0, 2), (1, 4), (2, 6)])
def test_cayley_round_trip_and_equivariance(seed, s):
    rng = SplitMix64(seed)
    x = gen_random_commuting(seed + 70, 1, s, "skew_hermitian").mats[0]
    a = cayley(x)
    assert fro(a.conj().T @ a - np.eye(s)) <= 1e-10
    assert fro(cayley_inv(a) - x) <= 1e-10
    u = haar_unitary(rng, s)
    assert fro(cayley(u @ x @ u.conj().T) - u @ a @ u.conj().T) <= 1e-10
    # output never has eigenvalue 1
    assert np.min(np.abs(np.linalg.eigvals(a) - 1.0)) > 1e-3


def test_stratum_rank():
    assert stratum_rank(identity_tuple(2, 4)) == 0
    t = gen_exact_rank_tuple(5, 2, 3, 6)
    assert stratum_rank(t) == 3


def test_empty_tuple_rank_is_full():
    # n = 0: the condition defining F is vacuous, so F is the whole space
    t = CommutingTuple("unitary", np.zeros((0, 3, 3)))
    assert F_subspace(t).shape == (3, 3)
    assert stratum_rank(t) == 3
    assert subquotient_chart(t).s == 3


def test_chart_scalar_example():
    t = CommutingTuple("unitary", np.array([np.diag([-1.0, 1.0, 1.0, 1.0])]))
    chart = subquotient_chart(t)
    assert chart.s == 1
    assert chart.X.mats.shape == (1, 1, 1)
    assert abs(chart.X.mats[0][0, 0]) < 1e-12  # cayley_inv(-1) = 0
    assert abs(abs(chart.f[0, 0]) - 1.0) < 1e-12


def test_chart_block_scalar_structure():
    # two labels of dimensions 2 and 1: the chart is block scalar with
    # values cayley_inv(x_ij)
    u = UniverseBasis(2, 1)
    eye = np.eye(u.dim, dtype=complex)
    x1, x2 = [-1.0, 1j], [1j, -1j]
    c = canonicalize(Configuration(u, [
        Label(eye[:, [0, 1]], SpherePoint(x1)),
        Label(eye[:, [2]], SpherePoint(x2)),
    ]))
    t = config_to_commuting(c)
    chart = subquotient_chart(t)
    assert chart.s == 3

    def inv_scalar(z):
        return complex(cayley_inv(np.array([[z]], dtype=complex))[0, 0])

    # the frame is a permutation-phase of the standard basis; match blocks
    # through the frame's absolute pattern
    for j in range(2):
        vals = {0: inv_scalar([x1, x2][0][j]), 1: inv_scalar([x1, x2][0][j]),
                2: inv_scalar([x1, x2][1][j])}
        expect = np.zeros((3, 3), dtype=complex)
        for col in range(3):
            src = int(np.argmax(np.abs(chart.f[:, col])))
            expect[col, col] = vals[src]
        assert fro(chart.X.mats[j] - expect) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_chart_reconstruction_and_ambiguity(seed):
    t = gen_exact_rank_tuple(seed, 2, 3, 5)
    chart = subquotient_chart(t)
    rec = reconstruct_chart(chart, 5)
    assert class_distance(rec, t) <= 1e-8
    assert commutator_defect(chart.X.mats) <= 1e-9
    g = haar_unitary(SplitMix64(seed + 900), 3)
    chart2 = subquotient_chart(t, frame=chart.f @ g)
    for i in range(2):
        assert fro(chart2.X.mats[i] - g.conj().T @ chart.X.mats[i] @ g) <= 1e-8


def test_chart_conjugation_moves_frame():
    t = gen_exact_rank_tuple(8, 2, 2, 4)
    chart = subquotient_chart(t)
    rng = SplitMix64(123)
    u = haar_unitary(rng, 4)
    conj = CommutingTuple("unitary", np.array([u @ a @ u.conj().T for a in t.mats]))
    chart_c = subquotient_chart(conj, frame=u @ chart.f)
    for i in range(2):
        assert fro(chart_c.X.mats[i] - chart.X.mats[i]) <= 1e-8


def test_wrong_stratum_on_bad_frame():
    t = gen_exact_rank_tuple(4, 1, 2, 4)
    chart = subquotient_chart(t)
    # a frame spanning a different subspace is rejected
    bad = np.eye(4, dtype=complex)[:, [0, 1]]
    if fro(bad @ bad.conj().T - chart.f @ chart.f.conj().T) > 1e-6:
        with pytest.raises(WrongStratum):
            subquotient_chart(t, frame=bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wrong_stratum_on_a_nan_frame():
    # F is the first coordinate line; a NaN frame has a NaN projection defect
    t = CommutingTuple("unitary", np.array([np.diag([-1.0, 1.0])]))
    with pytest.raises(WrongStratum):
        subquotient_chart(t, frame=np.array([[np.nan], [0.0]]))


def test_trace_split_examples():
    x = gen_random_commuting(3, 2, 3, "skew_hermitian")
    bar, tau = trace_split(x)
    assert max(abs(np.trace(m)) for m in bar.mats) <= 1e-12
    back = reassemble_trace(bar, tau)
    assert max(fro(a - b) for a, b in zip(back.mats, x.mats)) <= 1e-12
    # scalar tuple: X = i Id -> (0, 1)
    scal = CommutingTuple("skew_hermitian", np.array([1j * np.eye(3)]))
    bar2, tau2 = trace_split(scal)
    assert fro(bar2.mats[0]) < 1e-14
    assert tau2[0] == pytest.approx(1.0)
    # traceless input splits as (X, 0)
    tl = CommutingTuple("skew_hermitian", np.array([np.diag([1j, -1j])]))
    bar3, tau3 = trace_split(tl)
    assert fro(bar3.mats[0] - tl.mats[0]) < 1e-14
    assert abs(tau3[0]) < 1e-14


def test_stabilize():
    x = gen_random_commuting(9, 2, 3, "skew_hermitian")
    assert stabilize(x, 0).n == 2
    st = stabilize(stabilize(x, 1), 2)
    direct = stabilize(x, 3)
    assert st.n == direct.n == 5
    assert max(fro(a - b) for a, b in zip(st.mats, direct.mats)) == 0.0
    assert commutator_defect(st.mats) <= 1e-12


def test_pairing_chart():
    x = gen_random_commuting(11, 2, 2, "skew_hermitian")
    y = gen_random_commuting(12, 1, 3, "skew_hermitian")
    pair = pairing_chart(x, y)
    assert pair.n == 3 and pair.s == 6
    assert commutator_defect(pair.mats) <= 1e-12
    for i in range(2):
        assert abs(np.trace(pair.mats[i]) - 3 * np.trace(x.mats[i])) <= 1e-10
    # scalar case: 1x1 blocks concatenate
    xs = CommutingTuple("skew_hermitian", np.array([[[2j]]]))
    ys = CommutingTuple("skew_hermitian", np.array([[[-3j]]]))
    ps = pairing_chart(xs, ys)
    assert ps.mats[0][0, 0] == pytest.approx(2j)
    assert ps.mats[1][0, 0] == pytest.approx(-3j)
    # empty right factor of size one leaves the left tuple unchanged
    empty = CommutingTuple("skew_hermitian", np.zeros((0, 1, 1), dtype=complex))
    same = pairing_chart(x, empty)
    assert same.n == 2 and same.s == 2
    assert max(fro(a - b) for a, b in zip(same.mats, x.mats)) == 0.0


def test_pairing_chart_of_empty_tuples():
    x = CommutingTuple("skew_hermitian", np.zeros((0, 2, 2), dtype=complex))
    y = CommutingTuple("skew_hermitian", np.zeros((0, 3, 3), dtype=complex))
    pair = pairing_chart(x, y)
    assert pair.mats.shape == (0, 6, 6)
    assert pair.mats.dtype == complex


def test_trace_split_of_zero_size_tuple():
    x = CommutingTuple("skew_hermitian", np.zeros((2, 0, 0), dtype=complex))
    bar, tau = trace_split(x)
    assert bar.mats.shape == (2, 0, 0)
    assert tau.tolist() == [0.0, 0.0]
    assert reassemble_trace(bar, tau).mats.shape == (2, 0, 0)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
@pytest.mark.parametrize("n", [0, 2])
def test_zero_size_tuples_have_rank_zero(kind, n):
    t = CommutingTuple(kind, np.zeros((n, 0, 0)))
    assert stratum_rank(t) == 0
    assert F_subspace(t).shape == (0, 0)
    if kind == "unitary":
        assert subquotient_chart(t).s == 0
        assert real_stratum_chart(t).s == 0


def _cayley_partition_tuple():
    x = gen_partition_tuple(2, 2, (3, 2, 1))
    return CommutingTuple("unitary", np.array([cayley(m) for m in x.mats]))


CHART_TUPLES = {
    "simple": lambda: gen_random_commuting(3, 2, 6, "unitary"),
    "exact-rank": lambda: gen_exact_rank_tuple(5, 2, 4, 7),
    "partition": _cayley_partition_tuple,
}


@pytest.mark.parametrize("name", sorted(CHART_TUPLES))
def test_default_frame_chart_is_exactly_diagonal(name):
    # the F frame's columns are joint eigenvectors, so X and its traceless
    # part carry no off-diagonal roundoff
    chart = subquotient_chart(CHART_TUPLES[name]())
    assert chart.s >= 4
    for mats in (chart.X.mats, chart.traceless.mats):
        off = mats * (1 - np.eye(chart.s))
        assert np.all(off == 0)


def test_charts_raise_wrong_stratum_for_a_value_near_one():
    # 1e-7 is outside eps_base, so the value is in F, but within eps_struct
    # of 1, where the inverse transform is guarded
    tol = Tolerances(eps_struct=1e-6, eps_cluster=1e-6, eps_base=1e-9)
    t = CommutingTuple("unitary", np.array([np.diag([np.exp(1e-7j), -1.0])]))
    with pytest.raises(WrongStratum):
        subquotient_chart(t, tol)
    with pytest.raises(WrongStratum):
        real_stratum_chart(t, tol)


@pytest.mark.parametrize("name", sorted(CHART_TUPLES))
def test_supplied_frame_chart_reconstructs_the_class(name):
    t = CHART_TUPLES[name]()
    f = subquotient_chart(t).f
    g = haar_unitary(SplitMix64(77), f.shape[1])
    chart = subquotient_chart(t, frame=f @ g)
    assert np.array_equal(chart.f, f @ g)
    assert class_distance(reconstruct_chart(chart, t.s), t) <= 1e-8
