import numpy as np
import pytest

from commvar.errors import (
    NoConvergence,
    NotHermitian,
    RankDeficient,
    ShapeMismatch,
)
from commvar.numkit import (
    DEFAULT_TOL,
    Tolerances,
    _jacobi_sweeps,
    _round_robin,
    commutator_defect,
    fro,
    hermitian_eig,
    leading_indices,
    off_norm,
    orthonormalize,
    phase_normalize,
    stack_off_norm,
)
from commvar.rng import SplitMix64, haar_unitary


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(eps_struct=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_struct=1e-3, eps_cluster=1e-6)
    assert DEFAULT_TOL.eps_struct <= DEFAULT_TOL.eps_cluster


def test_orthonormalize_identity_on_orthonormal():
    e = np.eye(2, dtype=complex)
    out = orthonormalize(e)
    assert fro(out - e) < 1e-14


def test_orthonormalize_gram_schmidt():
    # hand Gram-Schmidt: (e1, e1+e2) -> (e1, e2)
    v = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    out = phase_normalize(orthonormalize(v))
    assert fro(out - np.eye(2)) < 1e-14


def test_orthonormalize_rank_deficient():
    v = np.array([[1.0, 1.0 + 1e-15], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RankDeficient):
        orthonormalize(v)


def test_orthonormalize_idempotent():
    rng = SplitMix64(3)
    v = rng.complex_normals(6, 3)
    q = orthonormalize(v)
    assert fro(orthonormalize(q) - q) < 1e-13


def test_hermitian_eig_zero():
    q, lam = hermitian_eig(np.zeros((3, 3)))
    assert fro(q - np.eye(3)) < 1e-14
    assert np.all(lam == 0)


def test_hermitian_eig_diagonal():
    q, lam = hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(lam, [1.0, 2.0])
    # Q is the swap permutation up to phase
    assert fro(np.abs(q) - np.array([[0, 1], [1, 0]])) < 1e-12


def test_hermitian_eig_closed_form_2x2():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    q, lam = hermitian_eig(h)
    assert np.allclose(lam, [-1.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert min(fro(q[:, 0] - minus), fro(q[:, 0] + minus)) < 1e-12
    assert min(fro(q[:, 1] - plus), fro(q[:, 1] + plus)) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_no_convergence_when_eigh_returns_a_wrong_basis(monkeypatch):
    # hermitian_eig checks LAPACK's answer: an eigh that returns the
    # identity basis for a non-diagonal matrix leaves a residual far above
    # 1e-12 ||H||_F
    rng = SplitMix64(19)
    g = rng.complex_normals(8, 8)
    h = 0.5 * (g + g.conj().T)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.zeros(len(a)), np.eye(len(a))))
    with pytest.raises(NoConvergence):
        hermitian_eig(h)
    monkeypatch.undo()
    q, lam = hermitian_eig(h)
    assert fro(q.conj().T @ h @ q - np.diag(lam)) <= 1e-12 * fro(h)


def test_jacobi_rotation_reaches_optimal_pair_residual():
    # two real symmetric 2x2 matrices whose pair vectors (c_00 - c_11,
    # -2 c_01, 0) are the columns of H = R diag(2, sqrt(3.99)), so that
    # G = H H^T = R diag(4, 3.99, 0) R^T with R a 30 degree rotation.  The
    # best rotation leaves sum_k |c_01|^2 = (tr G - lambda_max(G)) / 4; a
    # near-degenerate top of G is where an iterative eigenvector falls short
    th = np.pi / 6
    r = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    h = r[:, :2] * np.sqrt([4.0, 3.99])
    c = np.array([[[h0 / 2, -h1 / 2], [-h1 / 2, -h0 / 2]] for h0, h1, _ in h.T])
    g = h @ h.T
    _jacobi_sweeps(c, max_sweeps=1)
    off = np.sum(np.abs(c[:, 0, 1]) ** 2)
    best = (np.trace(g) - np.linalg.eigvalsh(g)[-1]) / 4
    assert abs(off - best) <= 1e-12 * best


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 1, 1), (2, 0, 0)])
def test_jacobi_sweeps_return_the_identity_with_no_off_diagonal_entry(shape):
    # no matrices, or matrices too small to have an off-diagonal entry:
    # the off-norm is 0, at any target
    assert np.array_equal(_jacobi_sweeps(np.ones(shape), max_sweeps=5), np.eye(shape[-1]))


@pytest.mark.parametrize("s", range(2, 10))
def test_round_robin_covers_each_pair_once_in_disjoint_rounds(s):
    p, q = _round_robin(s)
    assert p.shape == q.shape == (s - 1 + s % 2, s // 2)
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == [(i, j) for i in range(s) for j in range(i + 1, s)]
    for row_p, row_q in zip(p, q):
        seats = np.concatenate([row_p, row_q])
        assert len(set(seats.tolist())) == seats.size


def test_stack_off_norm_matches_per_matrix_norms():
    rng = SplitMix64(11)
    c = rng.complex_normals(3, 5, 5)
    per_matrix = np.sqrt(sum(fro(ck - np.diag(np.diag(ck))) ** 2 for ck in c))
    assert abs(stack_off_norm(c) - per_matrix) <= 1e-14 * per_matrix
    assert off_norm(c[0]) == stack_off_norm(c[:1])
    assert stack_off_norm(np.zeros((0, 4, 4))) == 0.0


def test_orthonormalize_accepts_single_vector_and_lists():
    out = orthonormalize(np.array([3.0, 4.0]))
    assert out.shape == (2, 1)
    assert np.allclose(out[:, 0], [0.6, 0.8])
    out2 = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    assert out2.shape == (2, 2)


def _loop_phase_normalize(frame, tol=DEFAULT_TOL):
    # the column loop phase_normalize replaced
    out = np.array(frame, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol.eps_struct)
        if idx.size:
            out[:, j] = col * (np.conj(col[idx[0]]) / abs(col[idx[0]]))
    return out


def _loop_leading_index(frame, tol=DEFAULT_TOL):
    # the one-frame leading index that leading_indices replaced
    if frame.shape[1] == 0:
        return frame.shape[0]
    rows = np.flatnonzero(np.max(np.abs(frame), axis=1) > tol.eps_struct)
    return int(rows[0]) if rows.size else frame.shape[0]


def _random_frames(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        d, k = rng.integers(0, 9), rng.integers(0, 9)
        a = rng.normal(size=(d, k))
        if rng.random() < 0.6:
            a = a + 1j * rng.normal(size=(d, k))
        # negligible leading rows and zero columns
        a[:rng.integers(0, d + 1)] *= rng.choice([0.0, 1e-12, 1e-10])
        if k and rng.random() < 0.3:
            a[:, rng.integers(0, k)] = 0.0
        yield a, rng


def test_phase_normalize_matches_the_column_loop():
    for a, _ in _random_frames(0):
        got, ref = phase_normalize(a), _loop_phase_normalize(a)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        # same per-column arithmetic; numpy may take a differently rounding
        # multiply loop for a different array layout
        np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_leading_indices_match_the_per_frame_loop():
    assert leading_indices([]) == []
    for a, rng in _random_frames(1):
        frames = np.split(a, np.sort(rng.integers(0, a.shape[1] + 1, size=3)), axis=1)
        assert leading_indices(frames) == [_loop_leading_index(f) for f in frames]


@pytest.mark.parametrize("s", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermitian_eig_random(seed, s):
    rng = SplitMix64(seed * 101 + s)
    g = rng.complex_normals(s, s)
    h = 0.5 * (g + g.conj().T)
    q, lam = hermitian_eig(h)
    assert fro(q @ q.conj().T - np.eye(s)) <= 1e-10
    assert fro(q.conj().T @ h @ q - np.diag(lam)) <= 1e-10 * fro(h)
    assert np.all(np.diff(lam) >= -1e-12)


def test_commutator_defect_diagonal_and_polynomial():
    d1 = np.diag([1.0, 2.0, 3.0])
    d2 = np.diag([4.0, 5.0, 6.0])
    assert commutator_defect([d1, d2]) == 0.0
    rng = SplitMix64(7)
    x = rng.complex_normals(4, 4)
    assert commutator_defect([x, x @ x]) < 1e-12


def test_commutator_defect_frozen_example():
    # direct 2x2 multiplication: [X, Y] = [[0, 2i], [2i, 0]], so the
    # Frobenius norm is 2*sqrt(2) and the normalizer is ||X|| ||Y|| = 2
    x = np.diag([1j, -1j])
    y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    comm = x @ y - y @ x
    assert fro(comm) == pytest.approx(2.0 * np.sqrt(2.0))
    got = commutator_defect([x, y])
    assert got == pytest.approx(np.sqrt(2.0))
    assert got > 0.1


def test_commutator_defect_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        commutator_defect([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatch):
        commutator_defect([np.ones((2, 3))])


def test_commutator_defect_conjugation_invariant():
    rng = SplitMix64(11)
    x = rng.complex_normals(4, 4)
    y = rng.complex_normals(4, 4)
    u = haar_unitary(rng, 4)
    before = commutator_defect([x, y])
    after = commutator_defect([u @ x @ u.conj().T, u @ y @ u.conj().T])
    assert abs(before - after) < 1e-12 * max(1.0, before)


def _mgs_orthonormalize(v, tol=DEFAULT_TOL):
    # the modified Gram-Schmidt loop (one re-orthogonalization pass) that
    # Householder QR replaced; it raises RankDeficient where QR must too
    dtype = complex if np.iscomplexobj(v) else float
    qs = []
    for j in range(v.shape[1]):
        w = v[:, j].astype(dtype)
        norm_in = fro(w)
        for _ in range(2):
            for q in qs:
                w = w - (q.conj() @ w) * q
        r = fro(w)
        if r < tol.eps_struct * norm_in or norm_in == 0.0:
            raise RankDeficient(f"vector {j} is dependent")
        qs.append(w / r)
    return np.column_stack(qs) if qs else np.zeros((v.shape[0], 0), dtype=dtype)


def test_orthonormalize_matches_the_mgs_loop():
    rng = SplitMix64(17)
    for _ in range(200):
        d = rng.randint(1, 40)
        k = rng.randint(0, d + 1)
        v = rng.complex_normals(d, k)
        for x in (v, v.real.copy()):
            got, ref = orthonormalize(x), _mgs_orthonormalize(x)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            # both make diag R real positive, so the frames agree column by
            # column, not just as subspaces
            assert fro(got - ref) <= 1e-14 * max(1.0, k)


def test_orthonormalize_rank_deficient_where_the_mgs_loop_is():
    rng = SplitMix64(23)
    v = rng.complex_normals(6, 3)
    zero_col = v.copy()
    zero_col[:, 1] = 0.0
    dependent = np.column_stack([v, v[:, 0] - 2.0 * v[:, 2]])
    near = np.column_stack([v, v[:, 1] * (1.0 + 1e-13)])
    too_many = rng.complex_normals(3, 4)
    for x in (zero_col, dependent, near, too_many, np.zeros((0, 1))):
        with pytest.raises(RankDeficient):
            _mgs_orthonormalize(x)
        with pytest.raises(RankDeficient):
            orthonormalize(x)
    # just above the threshold both accept
    fine = np.column_stack([v, v[:, 1] + 1e-6 * rng.complex_normals(6, 1)[:, 0]])
    assert fro(orthonormalize(fine) - _mgs_orthonormalize(fine)) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_orthonormalize_handles_entries_above_1e154():
    # the column norms never square an entry, so they stay finite up to the
    # largest float and the dependence test reads them as for small vectors
    q = orthonormalize(np.array([[1e200], [1e200]]))
    assert fro(q - np.full((2, 1), np.sqrt(0.5))) <= 1e-15
    with pytest.raises(RankDeficient, match="vector 1"):
        orthonormalize(np.array([[1e200, 2e200], [1e200, 2e200]]))
