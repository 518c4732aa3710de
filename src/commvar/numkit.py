"""Dense complex/real matrix kernel.

Provides orthonormalization, the shared tolerance policy, structure checks,
commutator defects, and the Jacobi eigen-machinery used everywhere else.  The
same plane-rotation solver drives a single Hermitian matrix and a family of
commuting Hermitian matrices to (joint) diagonality: for each index pair the
rotation is chosen to maximize the summed squared diagonal separation, which
is equivalent to minimizing the summed off-diagonal Frobenius energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotHermitian,
    NotSkewHermitian,
    NotSymmetric,
    NotUnitary,
    RankDeficient,
    ShapeMismatch,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class Tolerances:
    """Tolerance policy threaded explicitly through all operations.

    eps_struct   structural checks (unitarity, hermiticity, orthogonality)
    eps_cluster  eigenvalue-tuple clustering threshold
    eps_base     basepoint detection, distance of a value from 1
    max_sweeps   cap on Jacobi sweeps
    """

    eps_struct: float = 1e-9
    eps_cluster: float = 1e-6
    eps_base: float = 1e-9
    max_sweeps: int = 100

    def __post_init__(self):
        if not (self.eps_struct > 0 and self.eps_cluster > 0 and self.eps_base > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.eps_struct > self.eps_cluster:
            raise ValueError("eps_struct must not exceed eps_cluster")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


DEFAULT_TOL = Tolerances()


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    b = np.array(a, copy=True)
    np.fill_diagonal(b, 0.0)
    return fro(b)


def hermitian_defect(a: np.ndarray) -> float:
    return fro(a - a.conj().T)


def unitary_defect(a: np.ndarray) -> float:
    return fro(a.conj().T @ a - np.eye(a.shape[0]))


def skew_hermitian_defect(a: np.ndarray) -> float:
    return fro(a + a.conj().T)


def real_symmetric_defect(a: np.ndarray) -> float:
    return fro(np.asarray(a).imag) + fro(a - a.T)


def require_square(a: np.ndarray) -> int:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _scaled(defect: float, a: np.ndarray, eps: float) -> bool:
    return defect <= eps * max(1.0, fro(a))


def check_hermitian(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(hermitian_defect(a), a, tol.eps_struct):
        raise NotHermitian(f"hermitian defect {hermitian_defect(a):.3e}")


def check_unitary(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(unitary_defect(a), a, tol.eps_struct):
        raise NotUnitary(f"unitary defect {unitary_defect(a):.3e}")


def check_skew_hermitian(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(skew_hermitian_defect(a), a, tol.eps_struct):
        raise NotSkewHermitian(f"skew-hermitian defect {skew_hermitian_defect(a):.3e}")


def check_real_symmetric(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(real_symmetric_defect(a), a, tol.eps_struct):
        raise NotSymmetric(f"symmetric defect {real_symmetric_defect(a):.3e}")


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a family of column vectors.

    Modified Gram-Schmidt with one re-orthogonalization pass.  Accepts a
    (d, k) array or a sequence of 1-d arrays; returns a (d, k) array whose
    columns span the same subspace.

    Raises RankDeficient when a vector's residual norm falls below
    eps_struct times its input norm.
    """
    if isinstance(vectors, np.ndarray):
        v = vectors
    else:
        v = np.column_stack([np.asarray(x) for x in vectors])
    v = np.asarray(v)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2:
        raise ShapeMismatch(f"expected vectors or a (d, k) array, got {v.shape}")
    d, k = v.shape
    dtype = complex if np.iscomplexobj(v) else float
    qs: list[np.ndarray] = []
    for j in range(k):
        w = v[:, j].astype(dtype)
        norm_in = fro(w)
        for _ in range(2):
            for q in qs:
                w = w - (q.conj() @ w) * q
        r = fro(w)
        if r < tol.eps_struct * norm_in or norm_in == 0.0:
            raise RankDeficient(f"vector {j} is dependent (residual {r:.3e})")
        qs.append(w / r)
    if not qs:
        return np.zeros((d, 0), dtype=dtype)
    return np.column_stack(qs)


def phase_normalize(frame: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Scale each column so its first non-negligible entry is real positive."""
    out = np.array(frame, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol.eps_struct)
        if idx.size == 0:
            continue
        u = col[idx[0]]
        out[:, j] = col * (np.conj(u) / abs(u))
    return out


def leading_index(frame: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest row index at which any column has a non-negligible entry."""
    if frame.shape[1] == 0:
        return frame.shape[0]
    rows = np.flatnonzero(np.max(np.abs(frame), axis=1) > tol.eps_struct)
    return int(rows[0]) if rows.size else frame.shape[0]


def _dominant_eigvec3(g: np.ndarray) -> np.ndarray:
    """Dominant unit eigenvector of a symmetric PSD 3x3 matrix.

    Power iteration seeded from the largest column; G is a sum of outer
    products so the dominant eigenvalue is simple or the whole top eigenspace
    is equally good for the rotation gain.
    """
    norms = np.linalg.norm(g, axis=0)
    j = int(np.argmax(norms))
    if norms[j] == 0.0:
        return np.array([1.0, 0.0, 0.0])
    v = g[:, j] / norms[j]
    for _ in range(60):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
    return v


def _jacobi_sweeps(c: np.ndarray, max_sweeps: int,
                   off_target: float = 0.0) -> np.ndarray:
    """Cyclic Jacobi sweeps on a stack of Hermitian matrices, in place.

    Returns the accumulated unitary (orthogonal for real input) Q with
    Q^H C_k Q as diagonal as the sweeps achieve.  For each pair (p, q) the
    plane rotation maximizes sum_k (c'_pp - c'_qq)^2, the classical extended
    Jacobi angle choice; per pair this equals minimizing sum_k |c'_pq|^2.
    """
    kk, s, _ = c.shape
    real_input = not np.iscomplexobj(c)
    q_acc = np.eye(s, dtype=c.dtype)
    if s < 2 or kk == 0:
        return q_acc
    prev_off = math.inf
    for _sweep in range(max_sweeps):
        rotated = False
        for p in range(s - 1):
            for q in range(p + 1, s):
                h0 = c[:, p, p].real - c[:, q, q].real
                d = c[:, p, q]
                h1 = -2.0 * d.real
                h2 = -2.0 * d.imag
                hmat = np.stack([h0, h1, h2])
                g = hmat @ hmat.T
                v = _dominant_eigvec3(g)
                if v[0] < 0:
                    v = -v
                cth = math.sqrt(0.5 * (1.0 + v[0]))
                if real_input:
                    s_rot = v[1] / (2.0 * cth)
                else:
                    s_rot = (v[1] - 1j * v[2]) / (2.0 * cth)
                if abs(s_rot) <= 1e-14:
                    continue
                rotated = True
                jrot = np.array([[cth, np.conj(s_rot)], [-s_rot, cth]], dtype=c.dtype)
                pq = [p, q]
                c[:, pq, :] = jrot.conj().T @ c[:, pq, :]
                c[:, :, pq] = c[:, :, pq] @ jrot
                q_acc[:, pq] = q_acc[:, pq] @ jrot
        if not rotated:
            break
        off = stack_off_norm(c)
        if off <= off_target:
            break
        # stalled on the off-diagonal floor of a nearly-commuting family
        if off >= prev_off * (1.0 - 1e-6):
            break
        prev_off = off
    return q_acc


def stack_off_norm(c: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal parts of a matrix stack."""
    return math.sqrt(sum(off_norm(ck) ** 2 for ck in c))


def joint_diagonalizer(hmats, tol: Tolerances, off_target: float,
                       off_required: float) -> np.ndarray:
    """Unitary (orthogonal for real input) Q jointly diagonalizing commuting
    Hermitian matrices.

    Primary path: joint Jacobi sweeps, run until the off-diagonal energy
    reaches `off_target` (the convergence goal) or stalls on its floor.  If
    the result misses `off_target`, a deterministic random real-coefficient
    linear combination of the inputs is diagonalized first and the sweeps
    re-run on the conjugated family.  NoConvergence is raised only when the
    final residual exceeds `off_required` (at least `off_target`), the hard
    bound for tuples commuting at working tolerance.
    """
    kk = len(hmats)
    c = 0.5 * (hmats + np.conj(np.swapaxes(hmats, 1, 2)))
    q_acc = _jacobi_sweeps(c, tol.max_sweeps, off_target=off_target)
    if stack_off_norm(c) <= max(off_target, 1e-300):
        return q_acc
    # fallback: diagonalize a random combination, then refine jointly
    mixer = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ c.shape[1])
    coeffs = mixer.normals(kk)
    combo = np.tensordot(coeffs, c, axes=(0, 0))[None]
    q0 = _jacobi_sweeps(combo, tol.max_sweeps)
    c = np.einsum("ab,kbc,cd->kad", q0.conj().T, c, q0)
    q1 = _jacobi_sweeps(c, tol.max_sweeps, off_target=off_target)
    q_acc = q_acc @ q0 @ q1
    if stack_off_norm(c) <= max(off_required, 1e-300):
        return q_acc
    raise NoConvergence(
        f"joint off-diagonal residual {stack_off_norm(c):.3e} above "
        f"{off_required:.3e}"
    )


def hermitian_eig(h: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Hermitian eigendecomposition by cyclic Jacobi sweeps.

    Returns (Q, lam) with Q unitary, lam real ascending, and
    ||Q^H H Q - diag(lam)||_F <= 1e-12 ||H||_F.
    """
    require_square(h)
    check_hermitian(h, tol)
    hs = 0.5 * (np.asarray(h) + np.asarray(h).conj().T)
    scale = fro(hs)
    c = hs[None].copy()
    q = _jacobi_sweeps(c, tol.max_sweeps, off_target=1e-13 * scale)
    resid = off_norm(c[0])
    if resid > 1e-12 * max(scale, 1e-300):
        raise NoConvergence(f"off-diagonal residual {resid:.3e}")
    lam = np.diagonal(c[0]).real.copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    q = phase_normalize(q[:, order], tol)
    return q, lam


def commutator_defect(mats) -> float:
    """Largest normalized pairwise commutator norm of a matrix tuple.

    max over i < j of ||X_i X_j - X_j X_i||_F / max(1, ||X_i||_F ||X_j||_F).
    """
    arr = [np.asarray(m) for m in mats]
    if not arr:
        return 0.0
    n0 = require_square(arr[0])
    for m in arr[1:]:
        if require_square(m) != n0:
            raise ShapeMismatch("matrices in a tuple must share one size")
    worst = 0.0
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            comm = fro(arr[i] @ arr[j] - arr[j] @ arr[i])
            worst = max(worst, comm / max(1.0, fro(arr[i]) * fro(arr[j])))
    return worst
